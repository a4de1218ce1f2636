module Space = S2fa_tuner.Space

(* Each seed is a value per factor, so that it can be built by name
   ({!Dspace.design}) or straight into a partition ({!Dspace.fit}). *)
let performance = function
  | Dspace.Tile _ -> Space.VInt 1
  | Dspace.Par _ -> Space.VInt 32
  | Dspace.Pipe _ -> Space.VStr "on"
  | Dspace.Bw _ -> Space.VInt 512

let area = function
  | Dspace.Tile _ | Dspace.Par _ -> Space.VInt 1
  | Dspace.Pipe _ -> Space.VStr "off"
  | Dspace.Bw _ -> Space.VInt 16

let structured (t : Dspace.t) ~par ~task_par = function
  | Dspace.Tile _ -> Space.VInt 1
  | Dspace.Par id ->
    Space.VInt (if id = t.Dspace.ds_task_loop then task_par else par)
  | Dspace.Pipe id ->
    Space.VStr
      (if id = t.Dspace.ds_task_loop then "off"
       else if List.mem id t.Dspace.ds_inner_ids then "flatten"
       else "on")
  | Dspace.Bw _ -> Space.VInt 512

let performance_seed t = Dspace.design t performance

let area_seed t = Dspace.design t area

let structured_seed t = Dspace.design t (structured t ~par:8 ~task_par:8)

let structured_light_seed t =
  Dspace.design t (structured t ~par:4 ~task_par:2)

let seeds_for t part =
  List.map
    (Dspace.fit t part.Partition.p_space)
    [ performance;
      area;
      structured t ~par:8 ~task_par:8;
      structured t ~par:4 ~task_par:2 ]
