# Runs EXE with the single argument ARG and fails unless it exits with
# status EXPECT. Usage:
#   cmake -DEXE=<path> -DARG=<arg> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR
    "${EXE} ${ARG}: exit ${rc}, expected ${EXPECT}\n${out}${err}")
endif()
message(STATUS "${EXE} ${ARG}: exit ${rc} as expected: ${err}")
