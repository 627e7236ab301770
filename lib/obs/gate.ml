(* The on/off switch every instrumentation site consults first. One
   [Atomic.get] plus a branch: cheap enough to leave in the hot paths
   of the simulators, which is the whole point — the disabled path
   must be a no-op (the obs-span and obs-metrics "disabled no-op"
   tests require 100 000 disabled calls to allocate nothing).

   [LCL_OBS=1] in the environment turns observability on at startup
   (the CI instrumented-suite run uses it); [enable]/[disable] toggle
   it programmatically (the trace CLI and the test harness do). *)

let env_var = "LCL_OBS"

let initial =
  match Sys.getenv_opt env_var with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let state = Atomic.make initial
let enabled () = Atomic.get state
let enable () = Atomic.set state true
let disable () = Atomic.set state false
