# ctest script: runs one seed-7 p4auth scenario of an app and fails unless
# its stdout and metrics file equal the checked-in goldens byte for byte
# and its trace and audit files hash to the checked-in SHA-256 digests.
# Invoked as:
#   cmake -DP4AUTH_SIM=<binary> -DAPP=<hula|routescout> -DTAG=<run name>
#     [-DARGS="<extra flags>"] -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#     -P sim_golden.cmake
# The goldens are <APP>_seed7_{stdout.txt,metrics.json,sha256.txt}; every
# run of an app (the hula runs differ only in --shards) must reproduce
# the same files. After an intended output change, regenerate them with
#   p4auth_sim <APP> --scenario p4auth --seed 7 <ARGS>
#     --metrics-out <APP>_seed7_metrics.json --trace t.jsonl --audit a.jsonl
#     > <APP>_seed7_stdout.txt
# and `sha256sum t.jsonl a.jsonl | cut -d' ' -f1 > <APP>_seed7_sha256.txt`
# (trace digest on the first line, audit on the second).
separate_arguments(extra_args UNIX_COMMAND "${ARGS}")
set(golden ${GOLDEN_DIR}/${APP}_seed7)
set(prefix ${WORK_DIR}/${APP}_seed7_${TAG})
execute_process(
  COMMAND ${P4AUTH_SIM} ${APP} --scenario p4auth --seed 7 ${extra_args}
    --metrics-out ${prefix}_metrics.json --trace ${prefix}_trace.jsonl
    --audit ${prefix}_audit.jsonl
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE actual_stdout
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "p4auth_sim ${APP} ${ARGS} failed with exit code ${rc}")
endif()

file(READ ${golden}_stdout.txt expected_stdout)
if(NOT actual_stdout STREQUAL expected_stdout)
  message(FATAL_ERROR "stdout differs from ${golden}_stdout.txt; got:\n${actual_stdout}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${prefix}_metrics.json ${golden}_metrics.json
  RESULT_VARIABLE metrics_differ)
if(NOT metrics_differ EQUAL 0)
  message(FATAL_ERROR "${prefix}_metrics.json differs from ${golden}_metrics.json")
endif()

file(STRINGS ${golden}_sha256.txt expected_digests)
list(GET expected_digests 0 expected_trace)
list(GET expected_digests 1 expected_audit)
file(SHA256 ${prefix}_trace.jsonl actual_trace)
file(SHA256 ${prefix}_audit.jsonl actual_audit)
if(NOT actual_trace STREQUAL expected_trace)
  message(FATAL_ERROR "trace SHA-256 ${actual_trace} != golden ${expected_trace}")
endif()
if(NOT actual_audit STREQUAL expected_audit)
  message(FATAL_ERROR "audit SHA-256 ${actual_audit} != golden ${expected_audit}")
endif()

message(STATUS "${APP} seed-7 goldens ok (${TAG})")
