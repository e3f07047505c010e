# Runs one command line and checks its exit code and stderr, and its stdout
# when EXPECT_STDOUT is given:
#
#   cmake "-DCMD=PROGRAM;ARG;..." -DEXPECT_EXIT=N -DEXPECT_STDERR=REGEX
#         [-DEXPECT_STDOUT=REGEX] -P cli_test.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}" OR NOT err MATCHES "${EXPECT_STDERR}" OR
   (DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}"))
  message(FATAL_ERROR "exit ${code} (expected ${EXPECT_EXIT}), stderr "
                      "(must match '${EXPECT_STDERR}'):\n${err}\nstdout "
                      "(must match '${EXPECT_STDOUT}'):\n${out}")
endif()
