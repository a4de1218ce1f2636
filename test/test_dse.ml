(* S2FA DSE layer tests: design-space identification, partitioning,
   seeds and the simulated-time drivers. *)
module Rng = S2fa_util.Rng
module Space = S2fa_tuner.Space
module Tuner = S2fa_tuner.Tuner
module Dspace = S2fa_dse.Dspace
module Partition = S2fa_dse.Partition
module Seed = S2fa_dse.Seed
module Driver = S2fa_dse.Driver
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa

(* Compiled at start-up, KMeans first: loop ids come from a process-wide
   counter and the run golden below pins design keys that name them, so
   the numbering must not depend on which tests ran before. The kernel's
   analysis is made here too (it draws no loop id): it is made once per
   compiled kernel, as a [merlin.analyse] span, and the golden's span
   logs must not depend on which run came first either. *)
let analysed name =
  let c = W.compile (Option.get (W.find name)) in
  ignore (Lazy.force c.S2fa.c_analysis);
  Lazy.from_val c

let kmeans = analysed "KMeans"
let sw = analysed "S-W"

(* The other six kernels, compiled right after those two in [W.all]
   order, for the partition golden below. *)
let compiled_all =
  List.map
    (fun (w : W.t) ->
      match w.W.w_name with
      | "KMeans" -> (w.W.w_name, kmeans)
      | "S-W" -> (w.W.w_name, sw)
      | name -> (name, Lazy.from_val (W.compile w)))
    W.all

(* ---------- design-space identification (Table 1) ---------- *)

let test_identify_factors_per_loop () =
  let c = Lazy.force sw in
  let ds = c.S2fa.c_dspace in
  (* Every loop gets a pipeline factor; tileable loops get tile and
     parallel factors. *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "pipe for L%d" id)
        true
        (List.exists
           (fun p -> Space.param_name p = Dspace.pipe_name id)
           (Space.params ds.Dspace.ds_space)))
    ds.Dspace.ds_loop_ids

(* A while loop whose counter is read after it decompiles to
   [for (w = 0; w < 16; w++)] with [w] declared outside: Merlin will not
   tile it, so the space offers no tiling factor for it (a design that
   tiled it used to abort the DSE with a Transform_error). *)
let while_source =
  {|
class WhileSum() extends Accelerator[Array[Int], Int] {
  val id: String = "WhileSum"
  def call(in: Array[Int]): Int = {
    var sum = 0
    var w = 0
    while (w < 16) {
      sum = sum + in(w)
      w = w + 1
    }
    sum + w
  }
}
|}

let test_identify_untileable_loop () =
  let open S2fa_hlsc.Csyntax in
  let c = S2fa.compile while_source in
  let ds = c.S2fa.c_dspace in
  let has name =
    List.exists
      (fun p -> Space.param_name p = name)
      (Space.params ds.Dspace.ds_space)
  in
  let loops = ref [] in
  iter_loops
    (fun _ l -> loops := l :: !loops)
    (Option.get (find_cfunc c.S2fa.c_flat "kernel")).cfbody;
  let w = List.find (fun l -> l.lvar = "w") !loops in
  let id = w.lid in
  Alcotest.(check bool) "counter declared outside" false w.ldecl;
  Alcotest.(check bool) "no tile factor" false (has (Dspace.tile_name id));
  Alcotest.(check bool) "parallel factor" true (has (Dspace.par_name id));
  Alcotest.(check bool) "task loop tiles" true
    (has (Dspace.tile_name ds.Dspace.ds_task_loop))

let test_identify_buffers () =
  let c = Lazy.force sw in
  let ds = c.S2fa.c_dspace in
  List.iter
    (fun b ->
      Alcotest.(check bool) ("bw for " ^ b) true
        (List.exists
           (fun p -> Space.param_name p = Dspace.bw_name b)
           (Space.params ds.Dspace.ds_space)))
    ds.Dspace.ds_buffers;
  Alcotest.(check int) "S-W has 4 interface buffers" 4
    (List.length ds.Dspace.ds_buffers)

let test_identify_space_size_sw () =
  (* The paper: "the design space of the S-W example contains more than
     a thousand trillion design points". *)
  let c = Lazy.force sw in
  Alcotest.(check bool) "space > 1e15" true
    (Space.cardinality c.S2fa.c_dspace.Dspace.ds_space > 1e15)

let test_bitwidth_values_follow_table1 () =
  (* 8 < b = 2^n <= 512 *)
  let c = Lazy.force sw in
  let ds = c.S2fa.c_dspace in
  let p =
    List.find
      (fun p ->
        Space.param_name p = Dspace.bw_name (List.hd ds.Dspace.ds_buffers))
      (Space.params ds.Dspace.ds_space)
  in
  let values =
    List.filter_map
      (function Space.VInt v -> Some v | _ -> None)
      (Space.values_of p)
  in
  Alcotest.(check (list int)) "powers of two in (8,512]"
    [ 16; 32; 64; 128; 256; 512 ] values

let test_to_merlin_mapping () =
  let c = Lazy.force kmeans in
  let ds = c.S2fa.c_dspace in
  let inner = List.hd ds.Dspace.ds_inner_ids in
  let cfg =
    Space.set
      (Space.set (Seed.area_seed ds) (Dspace.par_name inner) (Space.VInt 8))
      (Dspace.pipe_name inner) (Space.VStr "flatten")
  in
  let m = Dspace.to_merlin ds cfg in
  let lc = S2fa_merlin.Transform.loop_cfg_of m inner in
  Alcotest.(check int) "parallel" 8 lc.S2fa_merlin.Transform.lc_parallel;
  Alcotest.(check bool) "flatten" true
    (lc.S2fa_merlin.Transform.lc_pipeline = S2fa_hlsc.Csyntax.PipeFlatten)

(* ---------- partitioning ---------- *)

let demo_space =
  Space.make
    [ Space.PPow2 ("par", 1, 64); Space.PEnum ("pipe", [ "off"; "on" ]) ]

let demo_samples =
  (* Latency depends strongly on pipe: a perfect split exists. *)
  let rng = Rng.create 42 in
  List.init 40 (fun _ ->
      let cfg = Space.random_cfg rng demo_space in
      let lat =
        (if Space.get_str cfg "pipe" = "on" then 1.0 else 10.0)
        +. Rng.float rng 0.1
      in
      { Partition.s_cfg = cfg; s_latency = lat })

let test_info_gain_positive_on_split () =
  let l = [| 1.0; 1.1; 0.9 |] and r = [| 10.0; 10.2; 9.8 |] in
  Alcotest.(check bool) "gain > 0" true (Partition.info_gain l r > 0.0)

let test_info_gain_zero_on_identical () =
  let l = [| 5.0; 5.0 |] and r = [| 5.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "no gain" 0.0 (Partition.info_gain l r)

let test_build_splits_on_informative_factor () =
  let parts =
    Partition.build ~depth:1 ~rule_params:[ [] ] demo_space demo_samples
  in
  Alcotest.(check int) "two partitions" 2 (List.length parts);
  (* The split must be on "pipe". *)
  List.iter
    (fun p ->
      match p.Partition.p_constrs with
      | [ Partition.CIn ("pipe", _) ] -> ()
      | _ -> Alcotest.fail "expected a pipe split")
    parts

(* Every rule set is scored and the highest root gain wins: "a" splits
   with a small positive gain and "b" with a large one, so the root
   splits on "b" although ["a"] comes first. *)
let test_root_rule_set_highest_gain () =
  let space =
    Space.make
      [ Space.PEnum ("a", [ "x"; "y" ]); Space.PEnum ("b", [ "u"; "v" ]) ]
  in
  let samples =
    List.concat_map
      (fun (a, b) ->
        let lat =
          (if b = "v" then 10.0 else 1.0) +. if a = "y" then 0.5 else 0.0
        in
        List.init 2 (fun _ ->
            { Partition.s_cfg =
                Space.of_list [ ("a", Space.VStr a); ("b", Space.VStr b) ];
              s_latency = lat }))
      [ ("x", "u"); ("x", "v"); ("y", "u"); ("y", "v") ]
  in
  let root rule_params =
    match Partition.build ~depth:1 ~rule_params space samples with
    | { Partition.p_constrs = [ Partition.CIn (n, _) ]; _ } :: _ -> n
    | _ -> Alcotest.fail "expected one root split"
  in
  Alcotest.(check string) "\"a\" alone has positive gain" "a"
    (root [ [ "a" ] ]);
  Alcotest.(check string) "the higher gain wins" "b"
    (root [ [ "a" ]; [ "b" ] ]);
  Alcotest.(check string) "an unknown name has no split" "b"
    (root [ [ "c" ]; [ "b" ] ])

let test_partitions_disjoint_cover () =
  let parts =
    Partition.build ~depth:2 ~rule_params:[ [] ] demo_space demo_samples
  in
  let rng = Rng.create 43 in
  for _ = 1 to 300 do
    let cfg = Space.random_cfg rng demo_space in
    let inside =
      List.filter
        (fun p ->
          List.for_all (Partition.satisfies cfg) p.Partition.p_constrs)
        parts
    in
    Alcotest.(check int) "exactly one partition" 1 (List.length inside)
  done

let test_restrict_narrows () =
  let s = Partition.restrict demo_space (Partition.CLe ("par", 8)) in
  match List.find (fun p -> Space.param_name p = "par") (Space.params s) with
  | Space.PPow2 (_, 1, 8) -> ()
  | _ -> Alcotest.fail "range not narrowed"

let test_project_into_partition () =
  let part =
    { Partition.p_constrs = [ Partition.CLe ("par", 8) ];
      p_space = Partition.restrict demo_space (Partition.CLe ("par", 8)) }
  in
  let cfg =
    Space.of_list [ ("par", Space.VInt 64); ("pipe", Space.VStr "on") ]
  in
  let projected = Partition.project part cfg in
  Alcotest.(check int) "clamped to 8" 8 (Space.get_int projected "par");
  Alcotest.(check string) "pipe kept" "on" (Space.get_str projected "pipe")

(* The list-based [Partition.build] that the value table replaced,
   kept verbatim as the oracle of [prop_build_matches_lists], with the
   variance it used and the list-based [restrict], so the oracle shares
   no code with the scorer under test. It reads a sample through
   [Space.to_list] and returns each leaf's constraints and parameters. *)
module Lists = struct
  open Partition

  let restrict space c =
    List.map
      (fun p ->
        match (p, c) with
        | Space.PPow2 (n, lo, hi), CLe (cn, t) when String.equal n cn ->
          Space.PPow2 (n, lo, min hi t)
        | Space.PPow2 (n, lo, hi), CGt (cn, t) when String.equal n cn ->
          Space.PPow2 (n, max lo (t + 1), hi)
        | Space.PInt (n, lo, hi), CLe (cn, t) when String.equal n cn ->
          Space.PInt (n, lo, min hi t)
        | Space.PInt (n, lo, hi), CGt (cn, t) when String.equal n cn ->
          Space.PInt (n, max lo (t + 1), hi)
        | Space.PEnum (n, cs), CIn (cn, allowed) when String.equal n cn ->
          let kept = List.filter (fun x -> List.mem x allowed) cs in
          Space.PEnum (n, if kept = [] then cs else kept)
        | _ -> p)
      space

  let mean xs =
    let n = Array.length xs in
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

  let variance xs =
    let n = Array.length xs in
    if n < 2 then 0.0
    else begin
      let m = mean xs in
      let acc =
        Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs
      in
      acc /. float_of_int n
    end

  let info_gain left right =
    let n_l = float_of_int (Array.length left) in
    let n_r = float_of_int (Array.length right) in
    let n = n_l +. n_r in
    if n = 0.0 then 0.0
    else begin
      let all = Array.append left right in
      variance all
      -. (n_l /. n *. variance left)
      -. (n_r /. n *. variance right)
    end

  let candidate_splits (p : Space.param) =
    match p with
    | Space.PInt (n, _, _) | Space.PPow2 (n, _, _) -> (
      let vs =
        List.filter_map
          (function Space.VInt v -> Some v | Space.VStr _ -> None)
          (Space.values_of p)
      in
      match vs with
      | [] | [ _ ] -> []
      | _ ->
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a, b) :: pairs rest
          | _ -> []
        in
        List.map (fun (a, _) -> CLe (n, a)) (pairs vs))
    | Space.PEnum (n, cs) ->
      if List.length cs <= 1 then []
      else List.map (fun c -> CIn (n, [ c ])) cs

  let satisfies cfg c =
    let cfg = Space.to_list cfg in
    match c with
    | CLe (n, t) -> (
      match List.assoc_opt n cfg with
      | Some (Space.VInt v) -> v <= t
      | _ -> true)
    | CGt (n, t) -> (
      match List.assoc_opt n cfg with
      | Some (Space.VInt v) -> v > t
      | _ -> true)
    | CIn (n, allowed) -> (
      match List.assoc_opt n cfg with
      | Some (Space.VStr s) -> List.mem s allowed
      | _ -> true)

  let negate_constr space = function
    | CLe (n, t) -> CGt (n, t)
    | CGt (n, t) -> CLe (n, t)
    | CIn (n, allowed) ->
      let all =
        List.concat_map
          (fun p ->
            if String.equal (Space.param_name p) n then
              List.filter_map
                (function Space.VStr s -> Some s | Space.VInt _ -> None)
                (Space.values_of p)
            else [])
          space
      in
      CIn (n, List.filter (fun s -> not (List.mem s allowed)) all)

  let lat_of samples = Array.of_list (List.map (fun s -> s.s_latency) samples)

  let best_split space samples ~allowed_params =
    let candidates =
      List.concat_map
        (fun p ->
          if
            allowed_params = []
            || List.mem (Space.param_name p) allowed_params
          then candidate_splits p
          else [])
        space
    in
    let score c =
      let l, r = List.partition (fun s -> satisfies s.s_cfg c) samples in
      if l = [] || r = [] then neg_infinity
      else info_gain (lat_of l) (lat_of r)
    in
    List.fold_left
      (fun acc c ->
        let g = score c in
        match acc with
        | Some (_, gb) when gb >= g -> acc
        | _ -> if g > 0.0 then Some (c, g) else acc)
      None candidates

  let build ?(depth = 3) ~rule_params space samples =
    let root_allowed =
      let scored =
        List.filter_map
          (fun rs ->
            match best_split space samples ~allowed_params:rs with
            | Some (_, g) -> Some (rs, g)
            | None -> None)
          rule_params
      in
      match scored with
      | [] -> []
      | (rs0, g0) :: rest ->
        fst
          (List.fold_left
             (fun (brs, bg) (rs, g) -> if g > bg then (rs, g) else (brs, bg))
             (rs0, g0) rest)
    in
    let rec grow space samples constrs d ~allowed =
      if d = 0 then [ (List.rev constrs, space) ]
      else
        match best_split space samples ~allowed_params:allowed with
        | None -> [ (List.rev constrs, space) ]
        | Some (c, _) ->
          let neg = negate_constr space c in
          let sl, sr = List.partition (fun s -> satisfies s.s_cfg c) samples in
          grow (restrict space c) sl (c :: constrs) (d - 1) ~allowed:[]
          @ grow (restrict space neg) sr (neg :: constrs) (d - 1) ~allowed:[]
    in
    grow space samples [] depth ~allowed:root_allowed
end

(* A random tree-fitting problem: 1-6 parameters of every kind, 0-40
   samples that sometimes miss a parameter or hold a value of the wrong
   kind, latencies from a small set (exact and inexact in binary) so
   that gains tie, depth 0-3, and rule sets that include [] and names
   outside the space. *)
let random_fit seed =
  let rng = Rng.create seed in
  let pick l = Rng.choose_list rng l in
  let space =
    List.init (Rng.int_in rng 1 6) (fun i ->
        let n = Printf.sprintf "p%d" i in
        match Rng.int rng 3 with
        | 0 ->
          let lo = Rng.int_in rng (-2) 3 in
          Space.PInt (n, lo, lo + Rng.int rng 6)
        | 1 -> Space.PPow2 (n, Rng.int_in rng 1 4, pick [ 1; 4; 16; 64 ])
        | _ ->
          let k = Rng.int_in rng 1 4 in
          Space.PEnum
            (n, List.filteri (fun i _ -> i < k) [ "a"; "b"; "c"; "d" ]))
  in
  let names = List.map Space.param_name space in
  let value p =
    match Rng.int rng 10 with
    | 0 -> None
    | 1 -> Some (if Rng.bool rng then Space.VInt 2 else Space.VStr "b")
    | _ -> (
      match Space.values_of p with [] -> None | vs -> Some (pick vs))
  in
  let lats = pick [ [ 1.0; 2.0; 3.5; 10.0 ]; [ 0.1; 0.2; 0.3; 1.7 ] ] in
  let samples =
    List.init (Rng.int rng 41) (fun _ ->
        { Partition.s_cfg =
            Space.of_list
              (List.filter_map
                 (fun p ->
                   Option.map (fun v -> (Space.param_name p, v)) (value p))
                 space);
          s_latency = pick lats })
  in
  let rule_params =
    List.init (Rng.int rng 4) (fun _ ->
        List.init (Rng.int rng 3) (fun _ -> pick ("zz" :: names)))
  in
  (space, samples, Rng.int rng 4, rule_params)

let prop_build_matches_lists =
  QCheck.Test.make ~name:"build equals the list-based fit" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let space, samples, depth, rule_params = random_fit seed in
      List.map
        (fun p -> (p.Partition.p_constrs, Space.params p.Partition.p_space))
        (Partition.build ~depth ~rule_params (Space.make space) samples)
      = Lists.build ~depth ~rule_params space samples)

(* [to_merlin] before it read the configuration into a table: every
   lookup a [List.assoc_opt]. *)
let to_merlin_lists (t : Dspace.t) cfg =
  let get_int name default =
    match List.assoc_opt name cfg with
    | Some (Space.VInt v) -> v
    | _ -> default
  in
  let get_pipe name =
    match List.assoc_opt name cfg with
    | Some (Space.VStr "on") -> S2fa_hlsc.Csyntax.PipeOn
    | Some (Space.VStr "flatten") -> S2fa_hlsc.Csyntax.PipeFlatten
    | _ -> S2fa_hlsc.Csyntax.PipeOff
  in
  { S2fa_merlin.Transform.cfg_loops =
      List.map
        (fun id ->
          ( id,
            { S2fa_merlin.Transform.lc_tile = get_int (Dspace.tile_name id) 1;
              lc_parallel = get_int (Dspace.par_name id) 1;
              lc_pipeline = get_pipe (Dspace.pipe_name id) } ))
        t.Dspace.ds_loop_ids;
    cfg_bitwidths =
      List.map (fun b -> (b, get_int (Dspace.bw_name b) 32)) t.Dspace.ds_buffers
  }

(* Loop ids at the edges of the int range, a loop and a buffer listed
   twice, and names that almost name one of them. *)
let odd_dspace =
  Dspace.make ~space:(Space.make [])
    ~loop_ids:[ 0; -3; 10; 7; 10; max_int; min_int ]
    ~task_loop:0 ~inner_ids:[]
    ~buffers:[ "in"; ""; "in"; "out_1" ]

let odd_names =
  List.concat_map
    (fun id -> [ Dspace.tile_name id; Dspace.par_name id; Dspace.pipe_name id ])
    odd_dspace.Dspace.ds_loop_ids
  @ List.map Dspace.bw_name odd_dspace.Dspace.ds_buffers
  @ [ "tile_L010"; "tile_L-0"; "tile_L"; "par_L+7"; "pipe_L7 "; "par_L-03";
      "tile_L+3"; "pipe_L01"; "tile_L3"; "par_L-7"; "pipe_L-10";
      "tile_L4611686018427387904"; "pipe_L-4611686018427387905"; "bw_in ";
      "bw"; "" ]

(* Design points with names bound twice (before or after the first
   binding, to another value or one of the wrong kind) and shuffled:
   S-W's, with parameters dropped, and bindings drawn from [odd_names]
   for [odd_dspace]. The first binding of a name wins. The S-W point
   itself, in its space's shape, is read through the plan and must
   agree too. *)
let prop_to_merlin_first_binding =
  QCheck.Test.make ~name:"to_merlin: the first binding wins" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let other () =
        match Rng.int rng 3 with
        | 0 -> Space.VStr (Rng.choose_list rng [ "on"; "flatten"; "x" ])
        | _ -> Space.VInt (1 lsl Rng.int rng 10)
      in
      let ds, cfg, planned =
        if Rng.bool rng then
          ( odd_dspace,
            List.init (Rng.int rng 30) (fun _ ->
                (Rng.choose_list rng odd_names, other ())),
            true )
        else
          let ds = (Lazy.force sw).S2fa.c_dspace in
          let point = Space.random_cfg rng ds.Dspace.ds_space in
          ( ds,
            List.concat_map
              (fun (n, v) ->
                match Rng.int rng 4 with
                | 0 -> []
                | 1 -> [ (n, v); (n, other ()) ]
                | 2 -> [ (n, other ()); (n, v) ]
                | _ -> [ (n, v) ])
              (Space.to_list point),
            Dspace.to_merlin ds point
            = to_merlin_lists ds (Space.to_list point) )
      in
      let arr = Array.of_list cfg in
      if Rng.bool rng then Rng.shuffle rng arr;
      let cfg = Array.to_list arr in
      planned
      && Dspace.to_merlin ds (Space.of_list cfg) = to_merlin_lists ds cfg)

(* ---------- seeds ---------- *)

let test_seed_shapes () =
  let c = Lazy.force sw in
  let ds = c.S2fa.c_dspace in
  let perf = Seed.performance_seed ds in
  let area = Seed.area_seed ds in
  let inner = List.hd ds.Dspace.ds_inner_ids in
  Alcotest.(check int) "perf: parallel 32" 32
    (Space.get_int perf (Dspace.par_name inner));
  Alcotest.(check string) "perf: pipeline on" "on"
    (Space.get_str perf (Dspace.pipe_name inner));
  Alcotest.(check int) "perf: bw 512" 512
    (Space.get_int perf (Dspace.bw_name (List.hd ds.Dspace.ds_buffers)));
  Alcotest.(check int) "area: parallel 1" 1
    (Space.get_int area (Dspace.par_name inner));
  Alcotest.(check string) "area: pipeline off" "off"
    (Space.get_str area (Dspace.pipe_name inner));
  Alcotest.(check int) "area: bw 16" 16
    (Space.get_int area (Dspace.bw_name (List.hd ds.Dspace.ds_buffers)))

let test_structured_seed_flattens_inner () =
  let c = Lazy.force sw in
  let ds = c.S2fa.c_dspace in
  let s = Seed.structured_seed ds in
  List.iter
    (fun id ->
      Alcotest.(check string) "inner flatten" "flatten"
        (Space.get_str s (Dspace.pipe_name id)))
    ds.Dspace.ds_inner_ids;
  Alcotest.(check string) "task off" "off"
    (Space.get_str s (Dspace.pipe_name ds.Dspace.ds_task_loop))

let test_area_seed_always_feasible () =
  List.iter
    (fun (w : W.t) ->
      let c = W.compile w in
      let r = S2fa.estimate c (Seed.area_seed c.S2fa.c_dspace) in
      Alcotest.(check bool)
        (w.W.w_name ^ " area seed feasible")
        true r.S2fa.Estimate.r_feasible)
    W.all

(* ---------- drivers ---------- *)

let cheap_objective counter cfg =
  incr counter;
  let par = Space.get_int cfg "par" in
  { Tuner.e_perf = 100.0 /. float_of_int par;
    e_feasible = par <= 32;
    e_minutes = 5.0 }

let demo_dspace =
  Dspace.make ~space:demo_space ~loop_ids:[] ~task_loop:0 ~inner_ids:[]
    ~buffers:[]

let test_vanilla_respects_time_limit () =
  let counter = ref 0 in
  let r =
    Driver.run_vanilla ~cores:4 ~time_limit:60.0 demo_dspace
      (cheap_objective counter) (Rng.create 44)
  in
  Alcotest.(check (float 1e-9)) "reported limit" 60.0 r.Driver.rr_minutes;
  (* 4 cores, 5 minutes per eval, 60-minute budget: 12 rounds of 4. *)
  Alcotest.(check int) "48 evals" 48 r.Driver.rr_evals

let test_best_curve_monotone () =
  let counter = ref 0 in
  let r =
    Driver.run_vanilla ~cores:4 ~time_limit:60.0 demo_dspace
      (cheap_objective counter) (Rng.create 45)
  in
  let curve = Driver.best_curve r in
  let rec decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly improving" true (decreasing curve);
  let rec times_sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && times_sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "times sorted" true (times_sorted curve)

let test_best_at () =
  let r =
    let ev minutes perf =
      { Driver.ev_minutes = minutes;
        ev_perf = perf;
        ev_feasible = true;
        ev_partition = 0;
        ev_technique = "" }
    in
    { Driver.rr_events = [ ev 10.0 5.0; ev 20.0 2.0; ev 30.0 9.0 ];
      rr_best = None;
      rr_minutes = 30.0;
      rr_evals = 3;
      rr_cache = None;
      rr_fault = None }
  in
  Alcotest.(check (float 1e-9)) "before anything" infinity
    (Driver.best_at r 5.0);
  Alcotest.(check (float 1e-9)) "after first" 5.0 (Driver.best_at r 10.0);
  Alcotest.(check (float 1e-9)) "end" 2.0 (Driver.best_at r 30.0)

let test_s2fa_run_terminates_and_finds () =
  let c = Lazy.force kmeans in
  let r = S2fa.explore c (Rng.create 46) in
  Alcotest.(check bool) "found something" true (r.Driver.rr_best <> None);
  Alcotest.(check bool) "within limit" true (r.Driver.rr_minutes <= 240.0);
  Alcotest.(check bool) "did evaluate" true (r.Driver.rr_evals > 10)

let test_s2fa_deterministic () =
  let c = Lazy.force kmeans in
  let r1 = S2fa.explore c (Rng.create 47) in
  let r2 = S2fa.explore c (Rng.create 47) in
  Alcotest.(check int) "same evals" r1.Driver.rr_evals r2.Driver.rr_evals;
  Alcotest.(check bool) "same best" true
    ((match (r1.Driver.rr_best, r2.Driver.rr_best) with
     | Some (a, pa), Some (b, pb) -> Space.key a = Space.key b && pa = pb
     | None, None -> true
     | _ -> false))

let test_dynamic_driver_runs () =
  let c = Lazy.force kmeans in
  let r =
    Driver.run_dynamic c.S2fa.c_dspace (S2fa.objective c) (Rng.create 50)
  in
  Alcotest.(check bool) "found something" true (r.Driver.rr_best <> None);
  Alcotest.(check bool) "within limit" true (r.Driver.rr_minutes <= 240.0);
  Alcotest.(check bool) "did evaluate" true (r.Driver.rr_evals > 20)

let test_ablation_switches_run () =
  let c = Lazy.force kmeans in
  let base = Driver.default_s2fa_opts in
  List.iter
    (fun opts ->
      let r = S2fa.explore ~opts c (Rng.create 48) in
      Alcotest.(check bool) "runs" true (r.Driver.rr_evals > 0))
    [ { base with Driver.so_partition = false };
      { base with Driver.so_seed_mode = `Area_only };
      { base with Driver.so_seed_mode = `None };
      { base with Driver.so_stop = `Trivial 10 };
      { base with Driver.so_stop = `Time_only; so_time_limit = 60.0 } ]

(* ---------- behaviour golden ---------- *)

module Resultdb = S2fa_tuner.Resultdb
module Fault = S2fa_fault.Fault
module Telemetry = S2fa_telemetry.Telemetry
module Obs = S2fa_obs.Obs

(* Every flow and option set below, on two kernels and in five variants,
   is pinned by golden/dse_runs.txt: the run_result fields at full float
   precision ([%h]) plus MD5 digests of the event list, the telemetry
   JSONL, the span log (virtual clock only) and each checkpoint
   snapshot's lines. Any change to scheduling, fault handling,
   checkpointing or tracing shows up as a diff against that file.
   [S2FA_UPDATE_GOLDEN=1] rewrites it. *)

let md5 s = Digest.to_hex (Digest.string s)

(* The run kinds: the static S2FA flow under its default options and
   each ablation option set, the DATuner-style dynamic flow and vanilla
   OpenTuner. *)
let golden_flows =
  let base = Driver.default_s2fa_opts in
  let s2fa name opts =
    (name, fun ?db ?trace ?faults ?checkpoint ds obj rng ->
        Driver.run_s2fa ~opts ?db ?trace ?faults ?checkpoint ds obj rng)
  in
  [ s2fa "s2fa" base;
    s2fa "s2fa/no-partition" { base with Driver.so_partition = false };
    s2fa "s2fa/area-seed" { base with Driver.so_seed_mode = `Area_only };
    s2fa "s2fa/no-seed" { base with Driver.so_seed_mode = `None };
    s2fa "s2fa/trivial-10" { base with Driver.so_stop = `Trivial 10 };
    s2fa "s2fa/time-only-60"
      { base with Driver.so_stop = `Time_only; so_time_limit = 60.0 };
    ( "dynamic",
      fun ?db ?trace ?faults ?checkpoint ds obj rng ->
        Driver.run_dynamic ?db ?trace ?faults ?checkpoint ds obj rng );
    ( "vanilla",
      fun ?db ?trace ?faults ?checkpoint ds obj rng ->
        Driver.run_vanilla ?db ?trace ?faults ?checkpoint ds obj rng ) ]

let spec_of str =
  match Fault.parse_spec str with Ok s -> s | Error m -> failwith m

(* Variant name, shared result database?, fault spec, checkpoint?: plain;
   a shared database; mixed faults with enough core loss that partitions
   fail over and most runs lose every core (checkpointed too, so
   snapshots taken between a loss and its failover are pinned); light
   core loss, so the flows run on with fewer cores; checkpoints alone. *)
let golden_variants =
  let mixed = "crash=0.08,hang=0.04,transient=0.05,timeout=30" in
  [ ("plain", false, None, false);
    ("db", true, None, false);
    ("faults", false, Some (spec_of (mixed ^ ",core_loss=0.1")), true);
    ("light-loss", false, Some (spec_of (mixed ^ ",core_loss=0.02")), false);
    ("ck", false, None, true) ]

let render_cache = function
  | None -> "none"
  | Some (s : Resultdb.snapshot) ->
    Printf.sprintf
      "entries=%d hits=%d misses=%d inserts=%d rejected=%d saved=%h"
      s.Resultdb.sn_entries s.Resultdb.sn_hits s.Resultdb.sn_misses
      s.Resultdb.sn_inserts s.Resultdb.sn_rejected s.Resultdb.sn_minutes_saved

let render_fault = function
  | None -> "none"
  | Some (st : Fault.stats) ->
    Printf.sprintf
      "injected=[%s] lost=[%s] retries=%d backoff=%h quarantined=%d \
       cores_lost=%d"
      (String.concat ","
         (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n)
            st.Fault.st_injected))
      (String.concat ","
         (List.map (fun (k, m) -> Printf.sprintf "%s:%h" k m) st.Fault.st_lost))
      st.Fault.st_retries st.Fault.st_backoff st.Fault.st_quarantined
      st.Fault.st_cores_lost

let render_events (r : Driver.run_result) =
  r.Driver.rr_events
  |> List.map (fun (e : Driver.event) ->
         Printf.sprintf "%h %h %b %d %s" e.Driver.ev_minutes e.Driver.ev_perf
           e.Driver.ev_feasible e.Driver.ev_partition e.Driver.ev_technique)
  |> String.concat "\n"

let golden_run wname (fname, run) (vname, use_db, spec, use_ck) =
  let c = Lazy.force (if wname = "KMeans" then kmeans else sw) in
  let seed = 7 in
  let db = if use_db then Some (Resultdb.create ()) else None in
  let faults = Option.map (Fault.create ~seed) spec in
  let snaps = ref [] in
  let checkpoint =
    if use_ck then
      Some
        { Driver.ck_path = None;
          ck_every = 10.0;
          ck_meta = [ ("workload", wname); ("seed", string_of_int seed) ];
          ck_hook = Some (fun ck -> snaps := ck :: !snaps) }
    else None
  in
  let buf = Buffer.create 65536 in
  let trace = Telemetry.create ~sinks:[ Telemetry.buffer_sink buf ] () in
  let prof = Obs.Profiler.create () in
  let r =
    Obs.with_profiler prof (fun () ->
        run ?db ?trace:(Some trace) ?faults ?checkpoint c.S2fa.c_dspace
          (S2fa.objective ?db c) (Rng.create seed))
  in
  let spans =
    List.map (Obs.span_to_json ~host:false) (Obs.Profiler.spans prof)
  in
  let jsonl = Buffer.contents buf in
  let b = Buffer.create 1024 in
  Printf.bprintf b "== %s %s %s\n" fname wname vname;
  Printf.bprintf b "best %s\n"
    (match r.Driver.rr_best with
    | Some (cfg, q) -> Printf.sprintf "%s %h" (Space.key cfg) q
    | None -> "none");
  Printf.bprintf b "minutes %h evals %d\n" r.Driver.rr_minutes
    r.Driver.rr_evals;
  Printf.bprintf b "cache %s\n" (render_cache r.Driver.rr_cache);
  Printf.bprintf b "fault %s\n" (render_fault r.Driver.rr_fault);
  Printf.bprintf b "events %d %s\n" (List.length r.Driver.rr_events)
    (md5 (render_events r));
  Printf.bprintf b "trace %d %s\n"
    (List.length (String.split_on_char '\n' jsonl) - 1)
    (md5 jsonl);
  Printf.bprintf b "spans %d %s\n" (List.length spans)
    (md5 (String.concat "\n" spans));
  List.iter
    (fun (ck : Driver.ck) ->
      Printf.bprintf b "ck %h %s\n" ck.Driver.ck_minutes
        (md5 (String.concat "\n" (Driver.ck_lines ck))))
    (List.rev !snaps);
  (Buffer.contents b, jsonl)

(* dune runtest runs us in test/; a bare [dune exec] runs from the
   workspace root. *)
let golden name =
  let dir =
    if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
    else "test/golden"
  in
  Filename.concat dir name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let count_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i n =
    if i + nl > hl then n
    else if String.sub hay i nl = needle then go (i + nl) (n + 1)
    else go (i + 1) n
  in
  go 0 0

(* Compare [body] with golden file [name], or rewrite the file under
   [S2FA_UPDATE_GOLDEN=1]. *)
let check_golden name body =
  let path = golden name in
  if Sys.getenv_opt "S2FA_UPDATE_GOLDEN" = Some "1" then
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc body)
  else begin
    (* Report the first differing line, not two 30 kB strings. *)
    let want = String.split_on_char '\n' (read_file path)
    and got = String.split_on_char '\n' body in
    let rec first i = function
      | w :: ws, g :: gs ->
        if w = g then first (i + 1) (ws, gs) else Some (i, w, g)
      | [], [] -> None
      | w :: _, [] -> Some (i, w, "<end of output>")
      | [], g :: _ -> Some (i, "<end of golden>", g)
    in
    match first 1 (want, got) with
    | None -> ()
    | Some (i, w, g) ->
      Alcotest.failf "%s:%d differs\n  golden: %s\n  actual: %s" path i w g
  end

let test_runs_golden () =
  let failovers = ref 0 and losses = ref 0 in
  let body =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun flow ->
            List.map
              (fun v ->
                let text, jsonl = golden_run w flow v in
                let vname, _, _, _ = v in
                if vname = "faults" then begin
                  failovers := !failovers + count_sub jsonl "\"failover\"";
                  losses := !losses + count_sub jsonl "\"core_lost\""
                end;
                text)
              golden_variants)
          golden_flows)
      [ "KMeans"; "S-W" ]
    |> String.concat ""
  in
  (* The faulted variant must exercise the loss paths it pins. *)
  Alcotest.(check bool) "cores were lost" true (!losses > 0);
  Alcotest.(check bool) "partitions failed over" true (!failovers > 0);
  check_golden "dse_runs.txt" body

(* golden/dse_partitions.txt pins the partition tree and the search of
   every kernel at seeds 1-16 and 1009 under the default S2FA flow:
   each partition's constraints, size, stop reason and evaluations,
   then the run's best design, finish time and evaluation count. *)
let partition_run name c seed =
  let sink, events = Telemetry.collector () in
  let r =
    S2fa.explore ~trace:(Telemetry.create ~sinks:[ sink ] ()) c
      (Rng.create seed)
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "== %s %d\n" name seed;
  List.iter
    (fun (e : Telemetry.event) ->
      match e.Telemetry.e_kind with
      | Telemetry.Partition_start { partition; constrs; points; _ } ->
        Printf.bprintf b "start %d %h %s\n" partition points constrs
      | Telemetry.Partition_stop { partition; reason; evals; _ } ->
        Printf.bprintf b "stop %d %s %d\n" partition
          (Telemetry.stop_reason_name reason) evals
      | _ -> ())
    (events ());
  Printf.bprintf b "best %s\n"
    (match r.Driver.rr_best with
    | Some (cfg, q) -> Printf.sprintf "%s %h" (Space.key cfg) q
    | None -> "none");
  Printf.bprintf b "minutes %h evals %d\n" r.Driver.rr_minutes
    r.Driver.rr_evals;
  Buffer.contents b

let test_partitions_golden () =
  let seeds = List.init 16 (fun i -> i + 1) @ [ 1009 ] in
  List.concat_map
    (fun (name, c) ->
      List.map (partition_run name (Lazy.force c)) seeds)
    compiled_all
  |> String.concat ""
  |> check_golden "dse_partitions.txt"

let () =
  Alcotest.run "dse"
    [ ( "dspace",
        [ Alcotest.test_case "factors per loop" `Quick
            test_identify_factors_per_loop;
          Alcotest.test_case "no tiling factor Merlin refuses" `Quick
            test_identify_untileable_loop;
          Alcotest.test_case "buffers" `Quick test_identify_buffers;
          Alcotest.test_case "S-W space size" `Quick test_identify_space_size_sw;
          Alcotest.test_case "bit-width values" `Quick
            test_bitwidth_values_follow_table1;
          Alcotest.test_case "to_merlin" `Quick test_to_merlin_mapping ] );
      ( "partition",
        [ Alcotest.test_case "info gain positive" `Quick
            test_info_gain_positive_on_split;
          Alcotest.test_case "info gain zero" `Quick
            test_info_gain_zero_on_identical;
          Alcotest.test_case "splits on informative factor" `Quick
            test_build_splits_on_informative_factor;
          Alcotest.test_case "root takes the highest-gain rule set" `Quick
            test_root_rule_set_highest_gain;
          Alcotest.test_case "disjoint cover" `Quick
            test_partitions_disjoint_cover;
          Alcotest.test_case "restrict narrows" `Quick test_restrict_narrows;
          Alcotest.test_case "project" `Quick test_project_into_partition ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_build_matches_lists; prop_to_merlin_first_binding ] );
      ( "seeds",
        [ Alcotest.test_case "paper shapes" `Quick test_seed_shapes;
          Alcotest.test_case "structured flattens inner" `Quick
            test_structured_seed_flattens_inner;
          Alcotest.test_case "area seed always feasible" `Slow
            test_area_seed_always_feasible ] );
      ( "driver",
        [ Alcotest.test_case "vanilla time limit" `Quick
            test_vanilla_respects_time_limit;
          Alcotest.test_case "best curve monotone" `Quick
            test_best_curve_monotone;
          Alcotest.test_case "best_at" `Quick test_best_at;
          Alcotest.test_case "s2fa terminates" `Slow
            test_s2fa_run_terminates_and_finds;
          Alcotest.test_case "s2fa deterministic" `Slow test_s2fa_deterministic;
          Alcotest.test_case "dynamic driver" `Slow test_dynamic_driver_runs;
          Alcotest.test_case "ablation switches" `Slow
            test_ablation_switches_run ] );
      ( "golden",
        [ Alcotest.test_case "every flow and variant pinned" `Slow
            test_runs_golden;
          Alcotest.test_case "partitions of every kernel pinned" `Slow
            test_partitions_golden ] ) ]
