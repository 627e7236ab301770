(* One table of named baselines, shared by every CLI subcommand and
   [Serve.Engine]. A function rather than a list, so no problem is
   built until a name is looked up. *)

let names = [ "cv-coloring"; "mis"; "matching"; "luby" ]

let find = function
  | "cv-coloring" ->
    Some (Cole_vishkin.three_coloring, Lcl.Zoo.coloring ~k:3 ~delta:2)
  | "mis" -> Some (Mis.algorithm, Lcl.Zoo.mis ~delta:2)
  | "matching" -> Some (Matching.algorithm, Lcl.Zoo.maximal_matching ~delta:2)
  | "luby" -> Some (Luby.algorithm, Lcl.Zoo.mis ~delta:2)
  | _ -> None
