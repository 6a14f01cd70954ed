// Package soak is the long-running robustness layer over the catalog:
// an open-loop session engine (simulated client sessions with a
// Poisson arrival process, geometric lengths, and exponential think
// times — connection churn, not a closed op loop) drives any
// repro.Catalog() backend for a wall-clock duration while a seeded
// fault plan injects the §5 failure model mid-run (mid-op crashes via
// Ops.Abandon, combiner kills via Ops.ArmCrash, slow-process stalls,
// forced adaptive morphs) and a robustness monitor watches the whole
// time: a per-pid heartbeat watchdog flags operations stalled past a
// deadline, a periodic leak/conservation audit (the PR 7 bracket,
// pool arena drift, heap telemetry) runs without stopping
// traffic, and windowed metrics.Histogram deltas turn the run into
// the provenance-stamped rows experiment E24 emits and cmd/slogate
// gates. Stopping — by duration or by SIGTERM relayed through
// Config.Stop — is a graceful drain: arrivals stop, in-flight
// operations flush, and the drain-time conservation audit has the
// last word.
package soak
