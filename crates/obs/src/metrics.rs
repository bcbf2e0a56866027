//! Every metric name in the workspace, declared once.
//!
//! A metric is one `pub const` here: the constant is its name, the doc
//! comment its description, and the name's suffix its kind
//! ([`kind_of`]). The `counter!`/`gauge!`/`histogram!`/`timer!` macros
//! check the kind at compile time, so a latency recorded through
//! `counter!` does not build. The lint (`xtask`, pass L4) checks the
//! rest over these constants: call sites reference one of them rather
//! than a string literal, values are unique and shaped
//! `multipub_<crate>_<name>`, every trace stage has its histogram, and
//! the README metrics table lists exactly these names. Adding or
//! renaming a metric therefore touches one constant and its README row.

/// What a metric measures, mirroring the registry's metric kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Value that can go up and down.
    Gauge,
    /// Distribution (latency histograms, fan-out sizes).
    Histogram,
}

/// The kind a metric's name declares: `_total` is a counter, a unit
/// suffix (`_ms`, `_subscribers`) a histogram of that unit, anything
/// else a gauge.
pub const fn kind_of(name: &str) -> MetricKind {
    if ends_with(name, "_total") {
        MetricKind::Counter
    } else if ends_with(name, "_ms") || ends_with(name, "_subscribers") {
        MetricKind::Histogram
    } else {
        MetricKind::Gauge
    }
}

/// `str::ends_with` for `const fn`, where neither it nor `slice::get`
/// can be called.
const fn ends_with(name: &str, suffix: &str) -> bool {
    let (name, suffix) = (name.as_bytes(), suffix.as_bytes());
    if name.len() < suffix.len() {
        return false;
    }
    let offset = name.len() - suffix.len();
    let mut i = 0;
    while i < suffix.len() {
        // lint:allow(indexing) `i < suffix.len()` and `offset + i < name.len()` by the length check above
        if name[offset + i] != suffix[i] {
            return false;
        }
        i += 1;
    }
    true
}

// --- core (optimizer) ---------------------------------------------------

/// Optimizer invocations.
pub const CORE_SOLVES_TOTAL: &str = "multipub_core_solves_total";
/// Wall-time of one `Optimizer::solve` call.
pub const CORE_SOLVE_MS: &str = "multipub_core_solve_ms";
/// Configurations whose delivery times the exhaustive solver had to examine
/// (count test or percentile); the rest of each enumeration was decided by
/// cost and region count alone.
pub const CORE_CONFIGS_EVALUATED_TOTAL: &str = "multipub_core_configs_evaluated_total";
/// Regions removed by the scaling pre-pass before solving.
pub const CORE_REGIONS_PRUNED_TOTAL: &str = "multipub_core_regions_pruned_total";

// --- broker -------------------------------------------------------------

/// Frames written to the wire.
pub const BROKER_FRAMES_ENCODED_TOTAL: &str = "multipub_broker_frames_encoded_total";
/// Frames successfully parsed off the wire.
pub const BROKER_FRAMES_DECODED_TOTAL: &str = "multipub_broker_frames_decoded_total";
/// Frames rejected by the codec.
pub const BROKER_CODEC_ERRORS_TOTAL: &str = "multipub_broker_codec_errors_total";
/// Topic-assignment updates applied from the controller.
pub const BROKER_CONFIG_UPDATES_TOTAL: &str = "multipub_broker_config_updates_total";
/// Publish frames accepted from clients.
pub const BROKER_PUBLISHES_TOTAL: &str = "multipub_broker_publishes_total";
/// Publishes relayed via the topic's pub-broker.
pub const BROKER_PUBLISH_ROUTED_TOTAL: &str = "multipub_broker_publish_routed_total";
/// Publishes delivered without an extra relay hop.
pub const BROKER_PUBLISH_DIRECT_TOTAL: &str = "multipub_broker_publish_direct_total";
/// Frames forwarded broker-to-broker.
pub const BROKER_FORWARDS_TOTAL: &str = "multipub_broker_forwards_total";
/// Messages handed to subscriber connections.
pub const BROKER_DELIVERIES_TOTAL: &str = "multipub_broker_deliveries_total";
/// Subscribers reached per publish (fan-out size).
pub const BROKER_FANOUT_SUBSCRIBERS: &str = "multipub_broker_fanout_subscribers";
/// End-to-end publish→deliver latency.
pub const BROKER_DELIVERY_MS: &str = "multipub_broker_delivery_ms";
/// Client connections accepted since start.
pub const BROKER_CONNECTIONS_TOTAL: &str = "multipub_broker_connections_total";
/// Currently connected clients.
pub const BROKER_CONNECTIONS_ACTIVE: &str = "multipub_broker_connections_active";
/// Subscribe requests handled.
pub const BROKER_SUBSCRIBES_TOTAL: &str = "multipub_broker_subscribes_total";
/// Connections reaped by the liveness sweep.
pub const BROKER_CONN_REAPED_TOTAL: &str = "multipub_broker_conn_reaped_total";
/// Bytes queued across all of the broker's outbound connection queues.
pub const BROKER_QUEUED_BYTES: &str = "multipub_broker_queued_bytes";
/// Frames queued across all of the broker's outbound connection queues.
pub const BROKER_QUEUED_FRAMES: &str = "multipub_broker_queued_frames";
/// `1` while the broker sheds publishes (in-flight byte budget tripped).
pub const BROKER_OVERLOADED: &str = "multipub_broker_overloaded";
/// Transitions into the overloaded state.
pub const BROKER_OVERLOAD_ENTERED_TOTAL: &str = "multipub_broker_overload_entered_total";
/// Data frames evicted from full outbound queues (`DropOldest`).
pub const BROKER_SLOW_EVICTIONS_TOTAL: &str = "multipub_broker_slow_evictions_total";
/// Data frames dropped at full outbound queues (`DropNewest`, expired
/// `Block` deadlines).
pub const BROKER_SLOW_DROPS_TOTAL: &str = "multipub_broker_slow_drops_total";
/// Connections severed by the `Disconnect` slow-consumer policy.
pub const BROKER_SLOW_DISCONNECTS_TOTAL: &str = "multipub_broker_slow_disconnects_total";
/// Publishes refused with a `Busy` NACK by admission control.
pub const BROKER_BUSY_REJECTIONS_TOTAL: &str = "multipub_broker_busy_rejections_total";
/// Publishes routed through the sharded subscription registry.
pub const BROKER_SHARD_PUBLISHES_TOTAL: &str = "multipub_broker_shard_publishes_total";
/// Encoded bytes handed to subscriber queues by the most recent
/// zero-copy fan-out.
pub const BROKER_FANOUT_BYTES: &str = "multipub_broker_fanout_bytes";
/// Traced-message time from the publisher stamp to admission control
/// passing (includes publisher→broker network transit).
pub const BROKER_STAGE_ADMISSION_MS: &str = "multipub_broker_stage_admission_ms";
/// Traced-message time spent in shard snapshot, filter match and
/// encode.
pub const BROKER_STAGE_MATCH_MS: &str = "multipub_broker_stage_match_ms";
/// Traced-message residency in the outbound flow queue.
pub const BROKER_STAGE_QUEUE_MS: &str = "multipub_broker_stage_queue_ms";
/// Traced-message wait from queue pop to the vectored write starting.
pub const BROKER_STAGE_WRITE_MS: &str = "multipub_broker_stage_write_ms";
/// Traced-message time from write start to client-side receipt
/// (includes broker→subscriber network transit).
pub const BROKER_STAGE_DELIVER_MS: &str = "multipub_broker_stage_deliver_ms";
/// QoS 1 publishes recognized as duplicate retransmits by the
/// per-publisher dedup window (re-acked, not re-fanned-out).
pub const BROKER_DEDUP_HITS_TOTAL: &str = "multipub_broker_dedup_hits_total";
/// Retained last-value messages replayed to new subscribers.
pub const BROKER_RETAINED_REPLAYS_TOTAL: &str = "multipub_broker_retained_replays_total";
/// Unacked QoS 1 deliveries replayed to a (re)subscribing client.
pub const BROKER_REDELIVERIES_TOTAL: &str = "multipub_broker_redeliveries_total";
/// QoS 1 deliveries currently awaiting a subscriber ack.
pub const BROKER_UNACKED_DEPTH: &str = "multipub_broker_unacked_depth";
/// Forwards sent to regions outside the committed serving set because a
/// handover (prepared or draining) widened the bridge mask.
pub const BROKER_BRIDGED_FORWARDS_TOTAL: &str = "multipub_broker_bridged_forwards_total";
/// Publishes arriving with a configuration epoch older than the
/// broker's committed view (bridged, never dropped).
pub const BROKER_STALE_EPOCH_PUBLISHES_TOTAL: &str = "multipub_broker_stale_epoch_publishes_total";
/// Config updates rejected because they carried an older epoch than the
/// installed configuration.
pub const BROKER_STALE_CONFIG_UPDATES_TOTAL: &str = "multipub_broker_stale_config_updates_total";

// --- obs (tracing) ------------------------------------------------------

/// Stage spans recorded into the trace ring (including overwritten).
pub const OBS_TRACE_SPANS_TOTAL: &str = "multipub_obs_trace_spans_total";

// --- client session -----------------------------------------------------

/// Successful client reconnects.
pub const CLIENT_RECONNECTS_TOTAL: &str = "multipub_client_reconnects_total";
/// Time from disconnect to restored session.
pub const CLIENT_RECONNECT_MS: &str = "multipub_client_reconnect_ms";
/// Frames buffered while a session is disconnected.
pub const CLIENT_FRAMES_BUFFERED_TOTAL: &str = "multipub_client_frames_buffered_total";
/// Buffered frames evicted because the replay buffer overflowed.
pub const CLIENT_FRAMES_DROPPED_TOTAL: &str = "multipub_client_frames_dropped_total";
/// `Busy` NACKs received from brokers (publish refused, retry later).
pub const CLIENT_BUSY_RECEIVED_TOTAL: &str = "multipub_client_busy_received_total";
/// QoS 1 publishes retransmitted because no PubAck arrived in time.
pub const CLIENT_RETRANSMITS_TOTAL: &str = "multipub_client_retransmits_total";
/// Duplicate QoS 1 deliveries filtered client-side by `(publisher, seq)`.
pub const CLIENT_DEDUP_HITS_TOTAL: &str = "multipub_client_dedup_hits_total";

// --- controller ---------------------------------------------------------

/// Re-optimization rounds started.
pub const CONTROLLER_ROUNDS_TOTAL: &str = "multipub_controller_rounds_total";
/// Wall-time of one re-optimization round.
pub const CONTROLLER_ROUND_MS: &str = "multipub_controller_round_ms";
/// Rounds that ran with a stale/partial measurement matrix.
pub const CONTROLLER_DEGRADED_ROUNDS_TOTAL: &str = "multipub_controller_degraded_rounds_total";
/// Topics examined across all rounds.
pub const CONTROLLER_TOPICS_EVALUATED_TOTAL: &str = "multipub_controller_topics_evaluated_total";
/// Topic evaluations whose constraints were satisfiable.
pub const CONTROLLER_FEASIBLE_TOTAL: &str = "multipub_controller_feasible_total";
/// Topic evaluations with no feasible configuration.
pub const CONTROLLER_INFEASIBLE_TOTAL: &str = "multipub_controller_infeasible_total";
/// Constraint-relaxation mitigations applied (§III.A5).
pub const CONTROLLER_MITIGATIONS_TOTAL: &str = "multipub_controller_mitigations_total";
/// Topic reconfigurations pushed to brokers.
pub const CONTROLLER_RECONFIGURATIONS_TOTAL: &str = "multipub_controller_reconfigurations_total";
/// Broker-link redials after a controller connection dropped.
pub const CONTROLLER_LINK_REDIALS_TOTAL: &str = "multipub_controller_link_redials_total";
/// Stats reports/snapshots discarded because a controller channel was full.
pub const CONTROLLER_REPORTS_DROPPED_TOTAL: &str = "multipub_controller_reports_dropped_total";
/// Config installs deferred because the target broker's link was dead at
/// deploy time (installed on redial instead).
pub const CONTROLLER_CONFIG_DEFERRED_TOTAL: &str = "multipub_controller_config_deferred_total";
/// Make-before-break handovers started.
pub const CONTROLLER_HANDOVERS_TOTAL: &str = "multipub_controller_handovers_total";
/// Handovers aborted and rolled back to the last committed epoch.
pub const CONTROLLER_HANDOVER_ROLLBACKS_TOTAL: &str =
    "multipub_controller_handover_rollbacks_total";
/// Wall-time of a handover's prepare phase (send to all acks in).
pub const CONTROLLER_HANDOVER_PREPARE_MS: &str = "multipub_controller_handover_prepare_ms";
/// Wall-time of a handover's commit phase (send to all acks in).
pub const CONTROLLER_HANDOVER_COMMIT_MS: &str = "multipub_controller_handover_commit_ms";

// --- simulation ---------------------------------------------------------

/// Topics solved by the spec runner.
pub const SIM_TOPICS_SOLVED_TOTAL: &str = "multipub_sim_topics_solved_total";
/// Wall-time of one spec-file run.
pub const SIM_SPEC_MS: &str = "multipub_sim_spec_ms";

// --- deterministic network simulator ------------------------------------

/// Simulated events processed by the engine.
pub const NETSIM_EVENTS_TOTAL: &str = "multipub_netsim_events_total";
/// Messages dropped by injected faults.
pub const NETSIM_LOST_TOTAL: &str = "multipub_netsim_lost_total";
/// Simulated end-to-end delivery latency. Nothing writes it: a simulation
/// report measures delivery times exactly from its delivery log. The name
/// stays while the benchmark harness still reads it (ROADMAP item 1 drops
/// it).
pub const NETSIM_DELIVERY_MS: &str = "multipub_netsim_delivery_ms";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_is_the_suffix() {
        assert_eq!(kind_of(CORE_SOLVES_TOTAL), MetricKind::Counter);
        assert_eq!(kind_of(NETSIM_LOST_TOTAL), MetricKind::Counter);
        assert_eq!(kind_of(CORE_SOLVE_MS), MetricKind::Histogram);
        assert_eq!(kind_of(BROKER_STAGE_QUEUE_MS), MetricKind::Histogram);
        assert_eq!(kind_of(BROKER_FANOUT_SUBSCRIBERS), MetricKind::Histogram);
        assert_eq!(kind_of(BROKER_CONNECTIONS_ACTIVE), MetricKind::Gauge);
        assert_eq!(kind_of(BROKER_QUEUED_BYTES), MetricKind::Gauge);
        assert_eq!(kind_of(BROKER_OVERLOADED), MetricKind::Gauge);
        // Shorter than every suffix, equal to one, and near misses.
        assert_eq!(kind_of(""), MetricKind::Gauge);
        assert_eq!(kind_of("ms"), MetricKind::Gauge);
        assert_eq!(kind_of("_ms"), MetricKind::Histogram);
        assert_eq!(kind_of("_total"), MetricKind::Counter);
        assert_eq!(kind_of("multipub_x_totals"), MetricKind::Gauge);
        assert_eq!(kind_of("multipub_x_total_ms"), MetricKind::Histogram);
    }
}
