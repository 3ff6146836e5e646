#include "engine/list_scheduler.h"

#include "circuit/gates.h"
#include "engine/backend.h"

namespace qsurf::engine {

void
ListOptions::fill(const WorkItem &item)
{
    const RunConfig &c = item.config;
    code_distance = item.resolveDistance();
    adapt_timeout = c.adapt_timeout;
    bfs_timeout = c.bfs_timeout;
    drop_timeout = c.drop_timeout;
    magic_production_cycles = c.magic_production_cycles;
    magic_buffer_capacity = c.magic_buffer_capacity;
    max_cycles = c.max_cycles;
    fast_forward = c.fast_forward;
    seed = c.seed;
    defects = c.defectParams();
    trace = c.trace;
}

void
setListMetrics(Metrics &m, const ListResult &r, const WorkItem &item)
{
    m.set("ff_skipped_cycles",
          static_cast<double>(r.ff_skipped_cycles));
    m.set("ff_skip_ratio",
          r.schedule_cycles
              ? static_cast<double>(r.ff_skipped_cycles)
                  / static_cast<double>(r.schedule_cycles)
              : 0.0);
    if (!item.config.defectParams().enabled())
        return;
    m.set("defect_dead_fraction", r.defect_dead_fraction);
    m.set("defect_avg_multiplier", r.defect_avg_multiplier);
    m.set("defective_nodes", static_cast<double>(r.defective_nodes));
    m.set("defective_links", static_cast<double>(r.defective_links));
    m.set("logical_error_proxy",
          logicalErrorProxy(
              static_cast<double>(item.circuit->numQubits()),
              r.schedule_cycles, m.code_distance,
              item.config.tech.p_physical, r.defect_avg_multiplier));
}

OpClass
classifyOp(const circuit::Gate &g, const char *scheduler)
{
    if (circuit::consumesMagicState(g.kind))
        return OpClass::TGate;
    int arity = g.arity();
    fatalIf(arity > 2, "gate ", circuit::gateName(g.kind),
            " must be decomposed before ", scheduler, " scheduling");
    return arity == 2 ? OpClass::TwoQ : OpClass::Local;
}

} // namespace qsurf::engine
