# ctest script: runs the hula seed-7 scenario and fails unless its stdout
# and metrics file equal the checked-in goldens byte for byte and its
# trace and audit files hash to the checked-in SHA-256 digests. Every
# --shards value must reproduce the same goldens. Invoked as:
#   cmake -DP4AUTH_SIM=<binary> -DSHARDS=<n> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#     -P sim_golden.cmake
# After an intended output change, regenerate the goldens with
#   p4auth_sim hula --scenario p4auth --seed 7 --duration-ms 300
#     --metrics-out hula_seed7_metrics.json --trace t.jsonl --audit a.jsonl
#     > hula_seed7_stdout.txt
# and `sha256sum t.jsonl a.jsonl | cut -d' ' -f1 > hula_seed7_sha256.txt`
# (trace digest on the first line, audit on the second).
set(prefix ${WORK_DIR}/hula_seed7_shards${SHARDS})
execute_process(
  COMMAND ${P4AUTH_SIM} hula --scenario p4auth --seed 7 --duration-ms 300 --shards ${SHARDS}
    --metrics-out ${prefix}_metrics.json --trace ${prefix}_trace.jsonl
    --audit ${prefix}_audit.jsonl
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE actual_stdout
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "p4auth_sim --shards ${SHARDS} failed with exit code ${rc}")
endif()

file(READ ${GOLDEN_DIR}/hula_seed7_stdout.txt expected_stdout)
if(NOT actual_stdout STREQUAL expected_stdout)
  message(FATAL_ERROR "stdout differs from ${GOLDEN_DIR}/hula_seed7_stdout.txt; got:\n"
    "${actual_stdout}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${prefix}_metrics.json ${GOLDEN_DIR}/hula_seed7_metrics.json
  RESULT_VARIABLE metrics_differ)
if(NOT metrics_differ EQUAL 0)
  message(FATAL_ERROR "${prefix}_metrics.json differs from "
    "${GOLDEN_DIR}/hula_seed7_metrics.json")
endif()

file(STRINGS ${GOLDEN_DIR}/hula_seed7_sha256.txt expected_digests)
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

message(STATUS "hula seed-7 goldens ok at --shards ${SHARDS}")
