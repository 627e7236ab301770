(* Service-level chaos plans. See service.mli for the contract.

   Same philosophy as the node-level [Plan]: a plan is plain data —
   explicit (ordinal, event) pairs, never probabilities — so a
   chaos-soak run is a pure function of (plan, seed, request mix).
   Probabilistic chaos enters only through [generate]. Events are
   kept ordinal-sorted with a canonical within-ordinal order, so
   structural equality is canonical. *)

type event =
  | Kill_worker of int
  | Stall_worker of int
  | Torn_frame
  | Drop_connection
  | Cache_corrupt
  | Disk_full

(* ordinal-sorted, deduplicated (ordinal, event) pairs *)
type t = (int * event) array

(* Canonical within-ordinal order = constructor order above; rank
   breaks ties among kills/stalls. *)
let event_order = function
  | Kill_worker r -> (0, r)
  | Stall_worker r -> (1, r)
  | Torn_frame -> (2, 0)
  | Drop_connection -> (3, 0)
  | Cache_corrupt -> (4, 0)
  | Disk_full -> (5, 0)

let compare_entry (o1, e1) (o2, e2) =
  match compare o1 o2 with 0 -> compare (event_order e1) (event_order e2) | c -> c

(* Dedup + sort; a torn frame and a dropped connection on one ordinal
   cannot coexist (the client can only vanish one way) — torn wins. *)
let normalize events =
  let l = List.sort_uniq compare_entry (Array.to_list events) in
  let torn_at o = List.mem (o, Torn_frame) l in
  let l =
    List.filter
      (fun (o, e) -> not (e = Drop_connection && torn_at o))
      l
  in
  Array.of_list l

let empty = [||]

let make events = normalize events

let is_empty p = p = [||]

let at p i =
  Array.to_list p
  |> List.filter_map (fun (o, e) -> if o = i then Some e else None)

let class_name = function
  | Kill_worker _ -> "kill_worker"
  | Stall_worker _ -> "stall_worker"
  | Torn_frame -> "torn_frame"
  | Drop_connection -> "drop_connection"
  | Cache_corrupt -> "cache_corrupt"
  | Disk_full -> "disk_full"

let all_classes =
  [
    "kill_worker"; "stall_worker"; "torn_frame"; "drop_connection";
    "cache_corrupt"; "disk_full";
  ]

let counts p =
  List.map
    (fun c ->
      ( c,
        Array.fold_left
          (fun acc (_, e) -> if class_name e = c then acc + 1 else acc)
          0 p ))
    all_classes

let client_side = function
  | Torn_frame | Drop_connection -> true
  | Kill_worker _ | Stall_worker _ | Cache_corrupt | Disk_full -> false

(* -- generation -------------------------------------------------------- *)

type spec = {
  kill : float;
  stall : float;
  torn : float;
  drop : float;
  cache_corrupt : float;
  disk_full : float;
  ranks : int;
}

let spec ?(kill = 0.) ?(stall = 0.) ?(torn = 0.) ?(drop = 0.)
    ?(cache_corrupt = 0.) ?(disk_full = 0.) ?(ranks = 4) () =
  { kill; stall; torn; drop; cache_corrupt; disk_full; ranks = max 1 ranks }

let generate ~seed ~requests spec =
  let rng = Util.Prng.create ~seed in
  let pick p = Util.Prng.float rng < p in
  let rank () = Util.Prng.int rng spec.ranks in
  let events = ref [] in
  (* one pass per class over the ordinals, fixed order, so the plan is
     a deterministic function of (seed, requests, spec) *)
  for o = 0 to requests - 1 do
    if pick spec.kill then events := (o, Kill_worker (rank ())) :: !events
  done;
  for o = 0 to requests - 1 do
    if pick spec.stall then events := (o, Stall_worker (rank ())) :: !events
  done;
  for o = 0 to requests - 1 do
    if pick spec.torn then events := (o, Torn_frame) :: !events
  done;
  for o = 0 to requests - 1 do
    if pick spec.drop then events := (o, Drop_connection) :: !events
  done;
  for o = 0 to requests - 1 do
    if pick spec.cache_corrupt then events := (o, Cache_corrupt) :: !events
  done;
  for o = 0 to requests - 1 do
    if pick spec.disk_full then events := (o, Disk_full) :: !events
  done;
  normalize (Array.of_list !events)
