# Runs bench_faults (E18) and compares the "cells" it writes with those of
# the committed BENCH_faults.json. The cells come from the simulated
# clock and seeded faults, so they repeat exactly; the timing "metrics"
# block is left out. bench_faults itself exits 1 on any forged accept or
# undelivered update.
#
#   cmake -DBENCH=<bench_faults> -DOUT=<fresh.json> \
#         -DCOMMITTED=<BENCH_faults.json> -P bench_faults_cells.cmake
execute_process(COMMAND "${BENCH}" "${OUT}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_faults exited with ${rc}")
endif()
file(READ "${OUT}" fresh)
file(READ "${COMMITTED}" committed)
string(JSON fresh_cells GET "${fresh}" cells)
string(JSON committed_cells GET "${committed}" cells)
string(JSON same EQUAL "${fresh_cells}" "${committed_cells}")
if(NOT same)
  message(FATAL_ERROR "bench_faults cells differ from ${COMMITTED}\n"
                      "fresh:     ${fresh_cells}\ncommitted: ${committed_cells}")
endif()
