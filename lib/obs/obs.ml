(* Facade of the [obs] library — the observability subsystem: nestable
   tracing spans in per-domain ring buffers ([Span]), a process-wide
   registry of counters/gauges/histograms ([Metrics]), and exporters
   ([Export]: Chrome-trace JSON, byte-stable JSONL, text summary).

   Everything is gated on one switch: [enabled]/[enable]/[disable],
   seeded from [LCL_OBS] at startup. Instrumented hot paths pay one
   atomic read and a branch when the switch is off, and allocate
   nothing (the test suite counts the words).

   The simulators carry the instrumentation: [Util.Parallel] (chunk
   spans and utilization), [Local.Runner] (simulate/verify spans,
   memo and status counters), [Volume.Probe] (probe counters),
   [Relim.Pipeline]/[Relim.Fixpoint] (iteration spans, label and
   search-step histograms), [Classify.Tree_gap] and [Fault.Inject].
   `lcl_tool trace` turns a workload into trace + summary files. *)

module Span = Span
module Metrics = Metrics
module Export = Export

let env_var = Gate.env_var
let enabled = Gate.enabled
let enable = Gate.enable
let disable = Gate.disable

(** Start a fresh trace: drop all spans, zero all metrics.
    [ring_capacity] sizes per-domain span rings created from now on. *)
let reset ?ring_capacity () =
  Span.reset ?ring_capacity ();
  Metrics.reset ()
