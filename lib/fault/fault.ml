(* Facade of the [fault] library — the fault-injection subsystem:
   deterministic, serializable fault plans ([Plan]), typed F-coded
   runtime errors ([Error]), and the machinery that applies a plan to
   a graph and verifies partial outcomes on the healthy subgraph
   ([Inject]). [Json] re-exports the repo's one JSON codec (the [json]
   library), which plans and degradation reports travel in.

   The simulators consume this library: [Local.Runner.run_resilient]
   and [Volume.Probe.run_resilient] run against a plan and return
   per-node [status]es instead of crashing; [Relim.Pipeline] uses
   [Error] for its typed entry points. *)

module Json = Json
module Error = Error
module Plan = Plan
module Service = Service
module Inject = Inject

type status = Inject.status =
  | Ok
  | Crashed
  | Starved
  | Errored of Error.t
