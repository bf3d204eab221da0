# cmake -DSRAS=<sras> -DSOURCE=<program.sasm> -DWORK=<dir> -P <this file>
#
# Runs SOURCE as a 4-job fleet and checks the --report-json it writes:
# one job's stats-only report (no per-Dnode detail) plus rt_* extras,
# with rt_total_cycles = 4 x cycles.
set(object "${WORK}/fleet_check.srgo")
set(report "${WORK}/fleet_check.report.json")
file(REMOVE "${report}")
execute_process(COMMAND "${SRAS}" "${SOURCE}" -o "${object}"
                COMMAND_ERROR_IS_FATAL ANY)
execute_process(COMMAND "${SRAS}" -r "${object}" 100000 --workers 2
                        --batch 4 --report-json "${report}"
                COMMAND_ERROR_IS_FATAL ANY)

file(READ "${report}" json)
string(JSON schema GET "${json}" schema)
string(JSON cycles GET "${json}" cycles)
string(JSON total GET "${json}" extras rt_total_cycles)
string(JSON dnodes ERROR_VARIABLE no_dnodes GET "${json}" dnodes)
math(EXPR want "4 * ${cycles}")
if(NOT schema STREQUAL "sring.run_report.v1" OR cycles EQUAL 0
   OR NOT total EQUAL want OR NOT no_dnodes)
  message(FATAL_ERROR "schema=${schema} cycles=${cycles} "
                      "rt_total_cycles=${total} (want ${want}) "
                      "dnodes='${dnodes}'")
endif()
