# ctest script: runs a fixed 600-scenario matrix (300 per campaign seed,
# seeds 1..2) and fails unless FUZZ_report.json hashes to the checked-in
# SHA-256 digest and the run finds no oracle violation. The report holds
# every scenario's spec, evidence counters and verdict, so the digest pins
# the scenario engine's evidence bytes for all (app, attack) pairs.
# Invoked as:
#   cmake -DP4AUTH_FUZZ=<binary> -DGOLDEN=<file> -DWORK_DIR=<dir>
#     -P fuzz_golden.cmake
# After an intended evidence change, regenerate the golden with
#   p4auth_fuzz --scenarios 300 --seeds 1..2 --jobs 2 --out d
#   sha256sum d/FUZZ_report.json | cut -d' ' -f1 > <golden file>
set(dir ${WORK_DIR}/fuzz_golden)
file(REMOVE_RECURSE ${dir})
execute_process(
  COMMAND ${P4AUTH_FUZZ} --scenarios 300 --seeds 1..2 --jobs 2 --out ${dir}
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "p4auth_fuzz failed with exit code ${rc}:\n${out}")
endif()

file(STRINGS ${GOLDEN} expected LIMIT_COUNT 1)
file(SHA256 ${dir}/FUZZ_report.json actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "FUZZ_report.json SHA-256 ${actual} != golden ${expected}")
endif()

message(STATUS "fuzz report golden ok")
