# Runs one command and fails unless it exits with exactly EXIT_CODE and,
# when STDERR_MATCH is set, its stderr contains that text.  An exact code
# keeps an abort (134) from passing as "non-zero".
#
#   cmake -DEXIT_CODE=N [-DSTDERR_MATCH=TEXT] -P expect_exit.cmake -- CMD [ARG...]
set(cmd)
set(after_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes ON)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "exit ${code}, want ${EXIT_CODE}; stderr:\n${err}")
endif()
if(DEFINED STDERR_MATCH)
  string(FIND "${err}" "${STDERR_MATCH}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks \"${STDERR_MATCH}\":\n${err}")
  endif()
endif()
