# Runs a command and passes only when it fails cleanly: a non-zero exit
# code (not a crash signal) and stderr matching EXPECT.
#
#   cmake -DEXPECT=<regex> -P expect_clean_error.cmake <command> [args...]
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> -P ${CMAKE_CURRENT_LIST_FILE} <command> [args...]")
endif()
# The command is everything after the script path, which follows -P.
set(command "")
set(script_at -1)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 0 ${last})
  if(script_at GREATER_EQUAL 0 AND i GREATER script_at)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR script_at "${i} + 1")
  endif()
endforeach()
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "crashed (${rc}) instead of failing cleanly:\n${err}")
endif()
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a failure, but the command exited 0")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
