module Space = S2fa_tuner.Space
module Transform = S2fa_merlin.Transform
module Csyntax = S2fa_hlsc.Csyntax
module Canalysis = S2fa_hlsc.Canalysis

type factor = Tile of int | Par of int | Pipe of int | Bw of string

(* Where a shape binds the kernel's factors: [pl_tile.(i)] is the slot
   that binds the tiling factor of the [i]th loop of [ds_loop_ids], -1
   when none does, and so on for the other kinds; [pl_factor.(s)] is the
   factor slot [s] binds. *)
type plan = {
  pl_shape : Space.shape;
  pl_tile : int array;
  pl_par : int array;
  pl_pipe : int array;
  pl_bw : int array;
  pl_factor : factor option array;
}

type t = {
  ds_space : Space.space;
  ds_loop_ids : int list;
  ds_task_loop : int;
  ds_inner_ids : int list;
  ds_buffers : string list;
  ds_plan : plan;
}

let tile_prefix = "tile_L"
let par_prefix = "par_L"
let pipe_prefix = "pipe_L"
let bw_prefix = "bw_"
let tile_name id = tile_prefix ^ string_of_int id
let par_name id = par_prefix ^ string_of_int id
let pipe_name id = pipe_prefix ^ string_of_int id
let bw_name b = bw_prefix ^ b

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

(* Each slot's name is parsed once: the first slot that names a factor
   binds it, as the first binding of a name wins in [List.assoc_opt].
   The name prefixes are disjoint. *)
let plan ~loop_ids ~buffers shape =
  let ids = Array.of_list loop_ids and bufs = Array.of_list buffers in
  let unbound keys = Array.make (Array.length keys) (-1) in
  let tile = unbound ids and par = unbound ids and pipe = unbound ids in
  let bw = unbound bufs in
  let factor = Array.make (Space.width shape) None in
  let bind slots s matches f =
    for i = 0 to Array.length slots - 1 do
      if slots.(i) < 0 && matches i then begin
        slots.(i) <- s;
        factor.(s) <- Some (f i)
      end
    done
  in
  for s = 0 to Space.width shape - 1 do
    let name = Space.slot_name shape s in
    let loop_factor slots prefix f =
      String.starts_with ~prefix name
      && begin
           (match int_at name (String.length prefix) with
           | Some id ->
             bind slots s (fun i -> Int.equal ids.(i) id) (fun i -> f ids.(i))
           | None -> ());
           true
         end
    in
    if
      not
        (loop_factor tile tile_prefix (fun id -> Tile id)
        || loop_factor par par_prefix (fun id -> Par id)
        || loop_factor pipe pipe_prefix (fun id -> Pipe id))
      && String.starts_with ~prefix:bw_prefix name
    then
      bind bw s
        (fun i -> rest_is name (String.length bw_prefix) bufs.(i))
        (fun i -> Bw bufs.(i))
  done;
  { pl_shape = shape;
    pl_tile = tile;
    pl_par = par;
    pl_pipe = pipe;
    pl_bw = bw;
    pl_factor = factor }

let make ~space ~loop_ids ~task_loop ~inner_ids ~buffers =
  { ds_space = space;
    ds_loop_ids = loop_ids;
    ds_task_loop = task_loop;
    ds_inner_ids = inner_ids;
    ds_buffers = buffers;
    ds_plan = plan ~loop_ids ~buffers (Space.space_shape space) }

(* Table 1's cap on tiling and parallel factors; the task loop's tiling
   factor is capped at 1024 instead. *)
let max_factor = 256

let identify prog =
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
  make
    ~space:(Space.make (params @ bw_params))
    ~loop_ids:
      (List.map
         (fun (li : Canalysis.loop_info) -> li.Canalysis.li_loop.Csyntax.lid)
         loops)
    ~task_loop ~inner_ids:inner_ids ~buffers

let to_merlin t cfg =
  let shape = Space.shape cfg in
  let p =
    if shape == t.ds_plan.pl_shape then t.ds_plan
    else plan ~loop_ids:t.ds_loop_ids ~buffers:t.ds_buffers shape
  in
  let get_int slot default =
    if slot < 0 then default
    else match Space.value_at cfg slot with Space.VInt v -> v | _ -> default
  in
  let get_pipe slot =
    if slot < 0 then Csyntax.PipeOff
    else
      match Space.value_at cfg slot with
      | Space.VStr "on" -> Csyntax.PipeOn
      | Space.VStr "flatten" -> Csyntax.PipeFlatten
      | _ -> Csyntax.PipeOff
  in
  let loops =
    List.mapi
      (fun i id ->
        ( id,
          { Transform.lc_tile = get_int p.pl_tile.(i) 1;
            lc_parallel = get_int p.pl_par.(i) 1;
            lc_pipeline = get_pipe p.pl_pipe.(i) } ))
      t.ds_loop_ids
  in
  let bitwidths =
    List.mapi (fun i b -> (b, get_int p.pl_bw.(i) 32)) t.ds_buffers
  in
  { Transform.cfg_loops = loops; cfg_bitwidths = bitwidths }

let design t value =
  Space.of_list
    (List.concat_map
       (fun id ->
         [ (tile_name id, value (Tile id));
           (par_name id, value (Par id));
           (pipe_name id, value (Pipe id)) ])
       t.ds_loop_ids
    @ List.map (fun b -> (bw_name b, value (Bw b))) t.ds_buffers)

let fit t space value =
  if Space.space_shape space != t.ds_plan.pl_shape then
    invalid_arg "Dspace.fit: not a restriction of the kernel's space";
  Space.fit space (fun s -> Option.map value t.ds_plan.pl_factor.(s))
