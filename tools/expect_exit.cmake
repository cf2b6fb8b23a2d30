# Runs a command and checks its exit code and output, for smoke tests
# that pin both (add_test's pass/fail regexes ignore the exit code).
#
#   cmake -DCOMMAND=<program> -DARGS="<args, space separated>"
#         -DEXIT=<code> -DREGEX=<pattern> -P expect_exit.cmake
#
# Fails unless the command exits with EXIT and its stdout or stderr
# matches REGEX.
separate_arguments(Args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${Args}
                RESULT_VARIABLE Code OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Code STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit code ${Code}, expected ${EXIT}\n${Out}${Err}")
endif()
if(NOT "${Out}${Err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${Out}${Err}")
endif()
