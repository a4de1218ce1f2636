module Space = S2fa_tuner.Space
module Transform = S2fa_merlin.Transform
module Csyntax = S2fa_hlsc.Csyntax
module Canalysis = S2fa_hlsc.Canalysis

type t = {
  ds_space : Space.space;
  ds_loop_ids : int list;
  ds_task_loop : int;
  ds_inner_ids : int list;
  ds_buffers : string list;
}

let tile_prefix = "tile_L"
let par_prefix = "par_L"
let pipe_prefix = "pipe_L"
let bw_prefix = "bw_"
let tile_name id = tile_prefix ^ string_of_int id
let par_name id = par_prefix ^ string_of_int id
let pipe_name id = pipe_prefix ^ string_of_int id
let bw_name b = bw_prefix ^ b

let identify ?(max_factor = 256) prog =
  let kernel =
    match Csyntax.find_cfunc prog "kernel" with
    | Some f -> f
    | None -> invalid_arg "Dspace.identify: no kernel function"
  in
  let summary = Canalysis.analyze kernel in
  let loops = summary.Canalysis.loops in
  let task_loop =
    match
      List.find_opt
        (fun (li : Canalysis.loop_info) -> li.Canalysis.li_ancestors = [])
        loops
    with
    | Some li -> li.Canalysis.li_loop.Csyntax.lid
    | None -> invalid_arg "Dspace.identify: kernel has no loops"
  in
  let max_depth =
    List.fold_left
      (fun m (li : Canalysis.loop_info) -> max m li.Canalysis.li_depth)
      0 loops
  in
  let inner_ids =
    List.filter_map
      (fun (li : Canalysis.loop_info) ->
        if li.Canalysis.li_depth = max_depth then
          Some li.Canalysis.li_loop.Csyntax.lid
        else None)
      loops
  in
  let params =
    List.concat_map
      (fun (li : Canalysis.loop_info) ->
        let id = li.Canalysis.li_loop.Csyntax.lid in
        let is_task = id = task_loop in
        let trip =
          match li.Canalysis.li_trip with
          | Some t -> t
          | None -> if is_task then 4096 else 64
        in
        let tile_hi = min trip (if is_task then 1024 else max_factor) in
        let par_hi = min trip max_factor in
        let tile =
          if
            tile_hi > 1
            && Option.is_none (Transform.tile_refusal li.Canalysis.li_loop)
          then [ Space.PPow2 (tile_name id, 1, tile_hi) ]
          else []
        in
        let par =
          if par_hi > 1 then [ Space.PPow2 (par_name id, 1, par_hi) ] else []
        in
        let pipe =
          [ Space.PEnum (pipe_name id, [ "off"; "on"; "flatten" ]) ]
        in
        tile @ par @ pipe)
      loops
  in
  let buffers =
    List.map (fun (b, _, _) -> b) summary.Canalysis.buffers
  in
  let bw_params =
    List.map (fun b -> Space.PPow2 (bw_name b, 16, 512)) buffers
  in
  { ds_space = params @ bw_params;
    ds_loop_ids =
      List.map (fun (li : Canalysis.loop_info) -> li.Canalysis.li_loop.Csyntax.lid) loops;
    ds_task_loop = task_loop;
    ds_inner_ids = inner_ids;
    ds_buffers = buffers }

(* Is [name], from position [at] to its end, [key]? Compared in place. *)
let rest_is name at key =
  let n = String.length key in
  let rec same i =
    i = n || (Char.equal name.[at + i] key.[i] && same (i + 1))
  in
  String.length name = at + n && same 0

(* [Some id] when [name], from position [at] to its end, is exactly
   [string_of_int id]: no sign but a minus, no leading zero, no
   overflow. Digits accumulate negatively, so that [min_int] parses. *)
let int_at name at =
  let n = String.length name in
  let neg = at < n && Char.equal name.[at] '-' in
  let first = if neg then at + 1 else at in
  let rec digits i acc =
    if i = n then Some acc
    else
      match name.[i] with
      | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if acc < (min_int + d) / 10 then None
        else digits (i + 1) ((acc * 10) - d)
      | _ -> None
  in
  if first = n || (Char.equal name.[first] '0' && (neg || n > first + 1))
  then None
  else
    match digits first 0 with
    | Some acc when neg -> Some acc
    | Some acc when acc <> min_int -> Some (-acc)
    | _ -> None

let to_merlin t cfg =
  (* Read the configuration once: a binding fills the empty slot of each
     loop factor or buffer it names, so the first binding of a name wins,
     as with [List.assoc_opt]. The name prefixes are disjoint. *)
  let ids = Array.of_list t.ds_loop_ids in
  let bufs = Array.of_list t.ds_buffers in
  let slots keys = Array.make (Array.length keys) None in
  let tile = slots ids and par = slots ids and pipe = slots ids in
  let bw = slots bufs in
  let fill slots v matches =
    for i = 0 to Array.length slots - 1 do
      if Option.is_none slots.(i) && matches i then slots.(i) <- Some v
    done
  in
  let loop_factor slots prefix name v =
    String.starts_with ~prefix name
    && begin
         (match int_at name (String.length prefix) with
         | Some id -> fill slots v (fun i -> Int.equal ids.(i) id)
         | None -> ());
         true
       end
  in
  List.iter
    (fun (name, v) ->
      if
        not
          (loop_factor tile tile_prefix name v
          || loop_factor par par_prefix name v
          || loop_factor pipe pipe_prefix name v)
        && String.starts_with ~prefix:bw_prefix name
      then
        fill bw v (fun i -> rest_is name (String.length bw_prefix) bufs.(i)))
    cfg;
  let get_int slot default =
    match slot with Some (Space.VInt v) -> v | _ -> default
  in
  let get_pipe = function
    | Some (Space.VStr "on") -> Csyntax.PipeOn
    | Some (Space.VStr "flatten") -> Csyntax.PipeFlatten
    | _ -> Csyntax.PipeOff
  in
  let loops =
    List.mapi
      (fun i id ->
        ( id,
          { Transform.lc_tile = get_int tile.(i) 1;
            lc_parallel = get_int par.(i) 1;
            lc_pipeline = get_pipe pipe.(i) } ))
      t.ds_loop_ids
  in
  let bitwidths =
    List.mapi (fun i b -> (b, get_int bw.(i) 32)) t.ds_buffers
  in
  { Transform.cfg_loops = loops; cfg_bitwidths = bitwidths }
