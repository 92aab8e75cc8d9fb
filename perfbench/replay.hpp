// Unit-cost replays: each drives one layer's public entry point in isolation,
// at the operation mix and depths the traced workload run measured (event
// queue depth, link count, message mix, machine queue depth, output backlog,
// batch size, checkpoint size), and reports wall nanoseconds per operation.
// Multiplied by the workload's operation count, each estimates that layer's
// share of the run (see NOTES.md, "Attribution").
#pragma once

#include "exp/scenario.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Adds sim.schedule_fire_ns, net.send_deliver_ns, cluster.submit_data_ns,
/// stream.produce_ack_ns, stream.receive_ns and checkpoint.serialize_ns to
/// `layers`, sized from the counts already in it.
void runReplays(const streamha::ScenarioParams& params, Layers& layers,
                SpanLog& spans, std::int64_t parentSpan);

}  // namespace perfbench
