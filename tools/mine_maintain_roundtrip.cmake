# CLI round trip: `mine --snapshot-out` writes a v2 rule snapshot carrying
# the run's match evidence, and `maintain` restores from that evidence
# instead of mining again (it prints "restored maintainer"). With no
# journal, the restore pass probes no center and re-expands no rule, and
# it writes back exactly the bytes `mine` wrote: DMine's seed and the
# maintainer's pass record evidence through one writer.
#
#   cmake -DTOOL=path/to/gpar_tool -DWORK=scratch/dir -P mine_maintain_roundtrip.cmake
file(MAKE_DIRECTORY ${WORK})

function(run_tool)
  execute_process(COMMAND ${TOOL} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpar_tool ${ARGN} exited ${rc}:\n${out}\n${err}")
  endif()
  set(tool_out "${out}" PARENT_SCOPE)
endfunction()

run_tool(generate --type synthetic --scale 1 --out ${WORK}/g.txt)
run_tool(snapshot --graph ${WORK}/g.txt --out ${WORK}/g.snap)
run_tool(mine --graph ${WORK}/g.txt --x l0 --edge e0 --y l1 --k 3 --d 1
         --sigma 2 --max-edges 2 --workers 2
         --snapshot-out ${WORK}/rules.snap)
run_tool(maintain --graph-snapshot ${WORK}/g.snap
         --rules-snapshot ${WORK}/rules.snap --out ${WORK}/rules2.snap
         --workers 2)
message("${tool_out}")
if(NOT tool_out MATCHES "restored maintainer")
  message(FATAL_ERROR "maintain did not restore from the mine snapshot")
endif()
foreach(want "reprobed=0 " "reexpanded=0 ")
  string(FIND "${tool_out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "maintain output lacks '${want}'")
  endif()
endforeach()
file(SHA256 ${WORK}/rules.snap mined_sha)
file(SHA256 ${WORK}/rules2.snap maintained_sha)
if(NOT mined_sha STREQUAL maintained_sha)
  message(FATAL_ERROR "maintain rewrote the mine snapshot differently: "
                      "${mined_sha} vs ${maintained_sha}")
endif()
