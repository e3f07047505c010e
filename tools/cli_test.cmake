# Runs one command line and checks its exit code and stderr:
#
#   cmake "-DCMD=PROGRAM;ARG;..." -DEXPECT_EXIT=N -DEXPECT_STDERR=REGEX -P cli_test.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}" OR NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "exit ${code} (expected ${EXPECT_EXIT}), stderr "
                      "(must match '${EXPECT_STDERR}'):\n${err}")
endif()
