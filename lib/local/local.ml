(* Facade of the [local] library: the LOCAL model of Definition 2.1 —
   algorithms over extracted views, a runner, order-invariance
   (Def. 2.7 / Theorem 2.11), and the classic Θ(log* n) baselines. *)

module Algorithm = Algorithm
module Runner = Runner
module Order_invariant = Order_invariant
module Cole_vishkin = Cole_vishkin
module Mis = Mis
module Matching = Matching
module Luby = Luby
module Rand_coloring = Rand_coloring
module Sync = Sync
module Forest = Forest
module Shortcut = Shortcut
module Baselines = Baselines
