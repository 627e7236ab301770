(* Typed runtime errors: the currency of resilient execution. Public
   entry points of the runners ([Local.Runner.run_resilient],
   [Volume.Probe.run_resilient], [Relim.Pipeline.run_result]) return
   [(_, Error.t) result] instead of tearing the process down with
   [failwith]/[invalid_arg], and per-node failures inside a run are
   carried as [Errored of Error.t] statuses with node-index context —
   a worker-domain exception never takes the whole run with it.

   Codes are stable, F-prefixed, and listed in DESIGN.md next to the
   L/S diagnostic tables of the analysis layer (which renders these as
   [Analysis.Diagnostic] values at the CLI boundary). *)

type t = {
  code : string;              (* stable, e.g. "F101" *)
  message : string;
  node : int option;          (* host-graph node index, when known *)
  range : (int * int) option; (* failing chunk [lo, hi), when known *)
}

exception E of t

let v ?node ?range ~code message = { code; message; node; range }

let f ?node ?range ~code fmt =
  Printf.ksprintf (fun message -> { code; message; node; range }) fmt

let raise_ e = raise (E e)

(* Stable code table (documented in DESIGN.md):
   F001 invalid input at a public entry point
   F002 unexpected exception escaping a component
   F101 worker-domain failure (from Util.Parallel.Worker_error)
   F102 algorithm output arity mismatch
   F103 algorithm raised while computing a node's output
   F201 probe budget exceeded
   F202 invalid probe (unknown tuple index or port)
   F301 malformed fault plan
   F302 corrupt or incompatible checkpoint *)

let rec of_exn ?node ?range exn =
  match exn with
  | E e -> { e with node = (match e.node with Some _ -> e.node | None -> node) }
  | Util.Parallel.Worker_error { lo; hi; index; error } ->
    (* the worker already knows the exact failing index: it beats
       whatever context the caller had, and the wrapped exception's own
       code survives when it is one of ours *)
    let inner = of_exn ~node:index ~range:(lo, hi) error in
    if inner.code = "F001" || inner.code = "F002" then
      { inner with code = "F101"; node = Some index; range = Some (lo, hi) }
    else { inner with node = Some index; range = Some (lo, hi) }
  | Invalid_argument m -> v ?node ?range ~code:"F001" m
  | Failure m -> v ?node ?range ~code:"F002" m
  | exn -> v ?node ?range ~code:"F002" (Printexc.to_string exn)

(* What the record policy of both simulators files for a node whose
   algorithm raised: an [E] keeps its own code (F102 for the runner's
   arity check), anything else is F103. *)
let of_algorithm_exn ~algo ~node = function
  | E _ as exn -> of_exn ~node exn
  | exn -> f ~node ~code:"F103" "%s raised: %s" algo (Printexc.to_string exn)

let context e =
  match (e.node, e.range) with
  | Some v, Some (lo, hi) -> Printf.sprintf " (node %d, chunk [%d,%d))" v lo hi
  | Some v, None -> Printf.sprintf " (node %d)" v
  | None, Some (lo, hi) -> Printf.sprintf " (chunk [%d,%d))" lo hi
  | None, None -> ""

let to_string e = Printf.sprintf "[%s] %s%s" e.code e.message (context e)
let pp ppf e = Fmt.string ppf (to_string e)

let to_json e =
  Json.Obj
    ([ ("code", Json.String e.code); ("message", Json.String e.message) ]
    @ (match e.node with Some v -> [ ("node", Json.Int v) ] | None -> [])
    @
    match e.range with
    | Some (lo, hi) -> [ ("chunk", Json.List [ Json.Int lo; Json.Int hi ]) ]
    | None -> [])

let () =
  Printexc.register_printer (function
    | E e -> Some ("Fault.Error.E " ^ to_string e)
    | _ -> None)
