(* Trace and metrics exporters.

   [chrome]: the Chrome-trace JSON object format ("X" complete
   events), loadable in chrome://tracing and Perfetto. Timestamps are
   microseconds relative to the earliest span, so the numbers are
   small and the file diffs meaningfully — but they are wall times,
   so this export is NOT byte-stable.

   [jsonl]: one event per line, no timestamps — the byte-stable log:
   two same-seed runs of the same workload print identical bytes
   (span streams are deterministic after the collect-time domain
   renaming, metric values are pure counts). The chaos-style CI diff
   and the exporter-agreement tests rely on this.

   [summary]: a plain-text digest for humans (per-name span counts
   and total self-inclusive time, then the metrics). *)

(* Seconds as microseconds, kept to nanosecond resolution. *)
let us seconds = Json.Float (Float.round (seconds *. 1e9) /. 1e3)

(** Chrome-trace JSON ({"traceEvents": [...]}) of the spans. *)
let chrome events =
  let t0 =
    List.fold_left (fun m (e : Span.event) -> min m e.t_start) infinity events
  in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let event (e : Span.event) =
    Json.Obj
      [
        ("name", String e.name); ("cat", String "lcl"); ("ph", String "X");
        ("pid", Int 0); ("tid", Int e.domain); ("ts", us (e.t_start -. t0));
        ("dur", us (e.t_stop -. e.t_start));
        ("args", Obj [ ("seq", Int e.seq); ("depth", Int e.depth) ]);
      ]
  in
  Json.to_string
    (Obj
       [
         ("traceEvents", List (List.map event events));
         ("displayTimeUnit", String "ms");
       ])

(* One metric line, or [None] for a zero metric. *)
let metric_json (name, (v : Metrics.value)) =
  let line ev fields =
    Some (Json.Obj (("ev", String ev) :: ("name", String name) :: fields))
  in
  match v with
  | _ when Metrics.is_zero v -> None
  | Metrics.Counter_v n -> line "counter" [ ("value", Int n) ]
  | Metrics.Gauge_v n -> line "gauge" [ ("value", Int n) ]
  | Metrics.Histogram_v { count; sum; max; buckets } ->
    line "histogram"
      [
        ("count", Int count); ("sum", Int sum); ("max", Int max);
        ( "buckets",
          List (List.map (fun (lo, c) -> Json.List [ Int lo; Int c ]) buckets)
        );
      ]

(** Byte-stable JSONL: span lines (in (domain, seq) order, no
    timestamps) followed by the nonzero metrics (in name order). *)
let jsonl events metrics =
  let span (e : Span.event) =
    Json.Obj
      [
        ("ev", String "span"); ("name", String e.name);
        ("domain", Int e.domain); ("seq", Int e.seq); ("depth", Int e.depth);
      ]
  in
  String.concat ""
    (List.map
       (fun j -> Json.to_string j ^ "\n")
       (List.map span events @ List.filter_map metric_json metrics))

(** Plain-text digest: per-name span count and total wall time, then
    the nonzero metrics. *)
let summary events metrics =
  let b = Buffer.create 1024 in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : Span.event) ->
      let dur = e.t_stop -. e.t_start in
      match Hashtbl.find_opt tbl e.name with
      | Some (c, t) -> Hashtbl.replace tbl e.name (c + 1, t +. dur)
      | None ->
        Hashtbl.add tbl e.name (1, dur);
        order := e.name :: !order)
    events;
  Buffer.add_string b "spans:\n";
  if !order = [] then Buffer.add_string b "  (none recorded)\n";
  List.iter
    (fun name ->
      let c, t = Hashtbl.find tbl name in
      Buffer.add_string b
        (Printf.sprintf "  %-28s %8d  %10.3f ms\n" name c (t *. 1e3)))
    (List.sort compare !order);
  Buffer.add_string b "metrics:\n";
  let live = List.filter (fun (_, v) -> not (Metrics.is_zero v)) metrics in
  if live = [] then Buffer.add_string b "  (none recorded)\n";
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter_v n ->
        Buffer.add_string b (Printf.sprintf "  %-28s %d\n" name n)
      | Metrics.Gauge_v n ->
        Buffer.add_string b (Printf.sprintf "  %-28s %d (gauge)\n" name n)
      | Metrics.Histogram_v { count; sum; max; _ } ->
        Buffer.add_string b
          (Printf.sprintf "  %-28s count=%d sum=%d max=%d\n" name count sum
             max))
    live;
  Buffer.contents b
