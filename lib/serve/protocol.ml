(* Wire protocol: marshaled envelope/response values in Framing
   frames. See protocol.mli for the contract. *)

type request =
  | Ping
  | Zoo
  | Classify of { problem : string }
  | Gap of { problem : string; iterations : int; max_labels : int }
  | Simulate of { algo : string; n : int; seed : int }
  | Faultsim of {
      algo : string;
      n : int;
      seed : int;
      fault_seed : int;
      crash : float;
      sever : float;
      retries : int;
    }
  | Stats
  | Health
  | Shutdown

type envelope = { req : request; budget_ms : int option }

type response =
  | Answer of string
  | Degraded of { text : string; reason : string }
  | Failed of { code : string; message : string }
  | Deadline_exceeded of { budget_ms : int }
  | Overloaded of { retry_after_ms : int }

let response_text = function
  | Answer text | Degraded { text; _ } -> Some text
  | Failed _ | Deadline_exceeded _ | Overloaded _ -> None

let response_label = function
  | Answer _ -> "answer"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"
  | Deadline_exceeded _ -> "deadline"
  | Overloaded _ -> "overloaded"

let response_to_string = function
  | Answer text -> text
  | Degraded { text; reason } ->
    Printf.sprintf "[degraded: %s]\n%s" reason text
  | Failed { code; message } -> Printf.sprintf "error %s: %s" code message
  | Deadline_exceeded { budget_ms } ->
    Printf.sprintf "deadline exceeded (budget %d ms)" budget_ms
  | Overloaded { retry_after_ms } ->
    Printf.sprintf "overloaded (retry after %d ms)" retry_after_ms

(* Canonical problem text: parse (or look up in the zoo) and
   pretty-print, so formatting differences between two spellings of
   the same problem collapse to one key. Unparsable problems get no
   fingerprint — the error answer must be recomputed, never cached. *)
let canonical_problem spec =
  match Zoo_table.find spec with
  | Some p -> Some (Lcl.Parse.to_string p)
  | None -> (
    match Lcl.Parse.of_string spec with
    | p -> Some (Lcl.Parse.to_string p)
    | exception Lcl.Parse.Parse_error _ -> None)

let digest s = Digest.to_hex (Digest.string s)

let fingerprint = function
  | Ping | Zoo | Stats | Health | Shutdown -> None
  | Classify { problem } ->
    (* v2: the answer format changed from the degree-2 verdict pair to
       the landscape-classifier JSON; the version tag keeps caches
       written by older daemons from answering in the old format. *)
    Option.map
      (fun c -> "classify:v2:" ^ digest c)
      (canonical_problem problem)
  | Gap { problem; iterations; max_labels } ->
    Option.map
      (fun c ->
        Printf.sprintf "gap:%d:%d:%s" iterations max_labels (digest c))
      (canonical_problem problem)
  | Simulate { algo; n; seed } ->
    Some (Printf.sprintf "simulate:%s:%d:%d" algo n seed)
  | Faultsim { algo; n; seed; fault_seed; crash; sever; retries } ->
    Some
      (Printf.sprintf "faultsim:%s:%d:%d:%d:%h:%h:%d" algo n seed fault_seed
         crash sever retries)

let encode_request ?budget_ms req =
  Util.Framing.encode (Marshal.to_string { req; budget_ms } [])

let write_response fd (r : response) =
  Util.Framing.write_frame fd (Marshal.to_string r [])

let envelope_of_payload payload : envelope = Marshal.from_string payload 0

let read_response fd : response option =
  Option.map
    (fun payload : response -> Marshal.from_string payload 0)
    (Util.Framing.read_frame fd)
