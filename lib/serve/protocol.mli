(** Wire protocol of the [lcl_tool serve] daemon.

    Requests and responses are marshaled OCaml values, one per
    length-prefixed [Util.Framing] frame, over a Unix-domain stream
    socket. Problems travel as text (a zoo name or the [Lcl.Parse]
    source), never as a file path: the daemon must not depend on the
    client's filesystem.

    Each request travels in an {!envelope} carrying its optional
    deadline budget; every response is one of the typed {!response}
    outcomes — there is no untyped failure, and a request whose budget
    expires is answered [Deadline_exceeded], never left hanging.

    Cacheable requests have a {!fingerprint}: a canonical key under
    which the daemon persists the answer text in its on-disk
    classification cache. The canonical form of a problem is its
    parsed pretty-printing, so two textual spellings of the same
    problem share one cache entry. *)

type request =
  | Ping
  | Zoo  (** list the built-in problems *)
  | Classify of { problem : string }
      (** degree-2 cycle/path classification (Section 4 machinery) *)
  | Gap of { problem : string; iterations : int; max_labels : int }
      (** Theorem 3.10 tree gap pipeline *)
  | Simulate of { algo : string; n : int; seed : int }
      (** a named LOCAL algorithm on an oriented cycle *)
  | Faultsim of {
      algo : string;
      n : int;
      seed : int;
      fault_seed : int;
      crash : float;
      sever : float;
      retries : int;
    }  (** resilient run under a generated fault plan *)
  | Stats  (** daemon counters; answered by the daemon itself *)
  | Health
      (** liveness probe: queue depth, worker status, cache stats,
          uptime — answered by the daemon itself, never queued *)
  | Shutdown  (** flush the cache and exit; answered before exiting *)

(** What travels in a request frame: the request plus its deadline
    budget in milliseconds ([None] = no deadline — the daemon may
    still impose its own). *)
type envelope = { req : request; budget_ms : int option }

(** Every way a request can terminate. [Answer] and [Degraded] both
    carry the full answer text — a degraded answer is byte-identical
    to the healthy one (recovered shards are recomputed in-process,
    see [Util.Cluster]), the flag only records that the service took a
    recovery path to produce it. [Failed] carries an F-coded service
    error (F4xx, see DESIGN.md). *)
type response =
  | Answer of string
  | Degraded of { text : string; reason : string }
  | Failed of { code : string; message : string }
  | Deadline_exceeded of { budget_ms : int }
  | Overloaded of { retry_after_ms : int }

(** The answer text when there is one ([Answer] or [Degraded]). *)
val response_text : response -> string option

(** Stable outcome class for reports and counters: ["answer"],
    ["degraded"], ["failed"], ["deadline"], or ["overloaded"]. *)
val response_label : response -> string

(** One-line human rendering (used by the CLI client). *)
val response_to_string : response -> string

(** Cache key for requests whose answer is deterministic in the
    request alone; [None] for the others ([Ping], [Zoo], [Stats],
    [Health], [Shutdown]). Malformed problems fingerprint to [None] so
    parse errors are never cached. *)
val fingerprint : request -> string option

(** Frame I/O over a socket. [read_response] returns [None] on clean
    EOF.
    @raise Util.Framing.Corrupt on a torn or oversized frame,
    [Failure] on an unmarshalable payload. *)

val write_response : Unix.file_descr -> response -> unit

val read_response : Unix.file_descr -> response option

(** Decode one marshaled envelope payload (a [Framing] frame body), as
    fed by the daemon's incremental decoder.
    @raise Invalid_argument on a payload shorter than its Marshal
    header or data size (the zero-length frame included), [Failure] on
    a bad header. *)
val envelope_of_payload : string -> envelope

(** The marshaled bytes of a request frame: what every client writes
    (the daemon's client sends a whole batch in one [write]; the
    torn-frame chaos leg sends a prefix). *)
val encode_request : ?budget_ms:int -> request -> string
