(** The named Θ(log* n) baseline algorithms the command line and the
    serve daemon run on oriented cycles, each paired with the problem
    it solves. *)

(** ["cv-coloring"; "mis"; "matching"; "luby"] *)
val names : string list

(** The algorithm of that name and its problem, if there is one. *)
val find : string -> (Algorithm.t * Lcl.Problem.t) option
