(* Merlin transformation tests: pragma application and semantics
   preservation of the structural rewrites. *)
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Canalysis = S2fa_hlsc.Canalysis
module T = S2fa_merlin.Transform
module Sym = S2fa_sym.Sym
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Dspace = S2fa_dse.Dspace
module Rng = S2fa_util.Rng
open Csyntax

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A reference kernel used for semantics checks: prefix sums into a
   buffer. *)
let prefix_prog () =
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 16)
      [ SAssign (EVar "acc", EBin (CAdd, EVar "acc", EIndex (EVar "a", EVar "i")));
        SAssign (EIndex (EVar "o", EVar "i"), EVar "acc") ]
  in
  let f =
    { cfname = "kernel";
      cfparams =
        [ { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None };
          { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SDecl (CInt, "acc", Some (EInt 0)); SFor loop ] }
  in
  ({ cfuncs = [ f ] }, loop.lid)

let run_prefix prog input =
  let a = Array.map (fun x -> Cinterp.VI x) input in
  let o = Array.make (Array.length input) (Cinterp.VI 0) in
  ignore
    (Cinterp.run_func prog "kernel" [ ("a", Cinterp.VA a); ("o", Cinterp.VA o) ]);
  Array.map (function Cinterp.VI v -> v | _ -> -1) o

let reference_prefix input =
  let acc = ref 0 in
  Array.map
    (fun x ->
      acc := !acc + x;
      !acc)
    input

let test_apply_pragmas () =
  let prog, lid = prefix_prog () in
  let cfg =
    { T.cfg_loops =
        [ (lid, { T.lc_tile = 1; lc_parallel = 4; lc_pipeline = PipeOn }) ];
      cfg_bitwidths = [ ("a", 256) ] }
  in
  let p = T.apply cfg prog in
  let s = to_string p in
  Alcotest.(check bool) "parallel pragma" true
    (contains s "#pragma ACCEL parallel factor=4");
  Alcotest.(check bool) "pipeline pragma" true
    (contains s "#pragma ACCEL pipeline");
  Alcotest.(check bool) "bitwidth set" true (contains s "bitwidth=256")

let test_pragmas_do_not_change_semantics () =
  let prog, lid = prefix_prog () in
  let cfg =
    { T.cfg_loops =
        [ (lid, { T.lc_tile = 1; lc_parallel = 8; lc_pipeline = PipeFlatten }) ];
      cfg_bitwidths = [] }
  in
  let p = T.apply cfg prog in
  let input = Array.init 16 (fun i -> (i * 7) - 20) in
  Alcotest.(check (array int)) "same outputs" (reference_prefix input)
    (run_prefix p input)

let test_tiling_preserves_semantics () =
  let input = Array.init 16 (fun i -> (i * i) - (3 * i)) in
  List.iter
    (fun tile ->
      let prog, lid = prefix_prog () in
      let cfg =
        { T.cfg_loops =
            [ (lid, { T.lc_tile = tile; lc_parallel = 2; lc_pipeline = PipeOff }) ];
          cfg_bitwidths = [] }
      in
      let p = T.apply cfg prog in
      Alcotest.(check (array int))
        (Printf.sprintf "tile=%d" tile)
        (reference_prefix input) (run_prefix p input))
    [ 2; 3; 4; 5; 7; 16 ]

let test_tiling_changes_loop_structure () =
  let prog, lid = prefix_prog () in
  let cfg =
    { T.cfg_loops =
        [ (lid, { T.lc_tile = 4; lc_parallel = 2; lc_pipeline = PipeOn }) ];
      cfg_bitwidths = [] }
  in
  let p = T.apply cfg prog in
  let f = Option.get (find_cfunc p "kernel") in
  let s = Canalysis.analyze f in
  Alcotest.(check int) "two loops after tiling" 2
    (List.length s.Canalysis.loops);
  let outer = Option.get (Canalysis.find_loop s lid) in
  Alcotest.(check (option int)) "outer trips" (Some 4) outer.Canalysis.li_trip

(* Variables named like the ones the rewrites introduce. Tiling by 4
   used to emit [for (int i_t = 0; i_t < 16; i_t += 4)] around a body
   that reads and writes the kernel's double [i_t] (Sym.equiv refuted
   it: out[0]: 95.0625 vs 43.5), and unrolling and tree reduction built
   [i_u], [i_r] and the lane [acc_r0] the same way. *)
let capture_prog () =
  let scan =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 16)
      [ SAssign
          ( EVar "i_t",
            EBin
              ( CAdd,
                EBin (CMul, EVar "i_t", EDouble 0.5),
                ECast (CDouble, EIndex (EVar "a", EVar "i")) ) );
        SAssign
          ( EIndex (EVar "o", EVar "i"),
            EBin (CAdd, EVar "i_t", ECast (CDouble, EVar "i_u")) ) ]
  in
  let reduce =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 16)
      [ SAssign
          ( EVar "acc",
            EBin
              (CAdd, EVar "acc",
               EBin (CMul, EIndex (EVar "a", EVar "i"), EVar "i_r")) ) ]
  in
  let f =
    { cfname = "kernel";
      cfparams =
        [ { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None };
          { cpname = "o"; cpty = CPtr CDouble; cpbitwidth = None };
          { cpname = "p"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody =
        [ SDecl (CDouble, "i_t", Some (EDouble 0.5));
          SDecl (CInt, "i_u", Some (EInt 3));
          SDecl (CInt, "i_r", Some (EInt 5));
          SDecl (CInt, "acc_r0", Some (EInt 7));
          SDecl (CInt, "acc", Some (EInt 0));
          SFor scan;
          SFor reduce;
          SAssign
            ( EIndex (EVar "p", EInt 0),
              EBin (CAdd, EBin (CAdd, EVar "acc", EVar "acc_r0"), EVar "i_r")
            ) ] }
  in
  ({ cfuncs = [ f ] }, scan.lid, reduce.lid)

let test_fresh_names_avoid_capture () =
  let prog, scan, reduce = capture_prog () in
  let tile =
    T.apply
      { T.cfg_loops =
          [ (scan, { T.lc_tile = 4; lc_parallel = 1; lc_pipeline = PipeOff }) ];
        cfg_bitwidths = [] }
      prog
  in
  List.iter
    (fun (what, p) ->
      match
        Sym.equiv ~caps:[ ("a", 16); ("o", 16); ("p", 1) ] prog p "kernel"
      with
      | Sym.Proved _ -> ()
      | Sym.Refuted cx -> Alcotest.failf "%s refuted: %s" what cx.Sym.cx_detail
      | Sym.Unknown m -> Alcotest.failf "%s unknown: %s" what m)
    [ ("tile", tile);
      ("unroll", T.real_unroll ~factor:4 ~loop_id:scan prog);
      ("reduce", T.tree_reduce ~lanes:4 ~loop_id:reduce prog) ];
  Alcotest.(check bool) "tile counter renamed" true
    (contains (to_string tile) "i_t1 = 0")

(* Generated kernel 717661: [for (int k ...) for (int k ...)]. Tiling
   both loops by 2 declares a [k] in each tiled body and assigns it
   there, which is no write of the enclosing loop's counter: each
   tiling, and both, are accepted and proved. *)
let test_same_counter_tiled_twice () =
  let prog = S2fa_fuzz.Fuzz.gen_c_kernel (Rng.create 717661) in
  let loops = ref [] in
  iter_loops
    (fun _ l -> loops := l :: !loops)
    (Option.get (find_cfunc prog "kernel")).cfbody;
  Alcotest.(check (list string)) "nested loops share a counter" [ "k"; "k" ]
    (List.map (fun l -> l.lvar) !loops);
  let tile ids =
    T.apply
      { T.cfg_loops =
          List.map
            (fun l ->
              ( l.lid,
                { T.lc_tile = 2; lc_parallel = 1; lc_pipeline = PipeOff } ))
            ids;
        cfg_bitwidths = [] }
      prog
  in
  List.iter
    (fun (what, ids) ->
      match
        Sym.equiv
          ~caps:[ ("in", S2fa_fuzz.Fuzz.c_cap); ("out", S2fa_fuzz.Fuzz.c_cap) ]
          prog (tile ids) "kernel"
      with
      | Sym.Proved _ -> ()
      | Sym.Refuted cx -> Alcotest.failf "%s refuted: %s" what cx.Sym.cx_detail
      | Sym.Unknown m -> Alcotest.failf "%s unknown: %s" what m
      | exception T.Transform_error m -> Alcotest.failf "%s refused: %s" what m)
    [ ("outer", [ List.nth !loops 1 ]);
      ("inner", [ List.hd !loops ]);
      ("both", !loops) ]

(* [for (int k ...) { o[k] = a[k]; for (k = 0; k < 4; k++) ... }]: the
   nested loop counts with the outer loop's [k], so after one outer
   iteration [k] is 4 and the loop ends. Tiling redeclares [k] in the
   tiled body, where the nested loop no longer ends the outer one
   (Sym.equiv refuted the tiled program: o[1]: 2 vs 9), so tiling is
   refused as a write of the counter. *)
let test_nested_loop_writing_counter () =
  let inner =
    mk_loop ~decl:false ~var:"k" ~lo:(EInt 0) ~hi:(EInt 4)
      [ SAssign (EIndex (EVar "o", EBin (CAdd, EVar "k", EInt 4)), EInt 1) ]
  in
  let outer =
    mk_loop ~var:"k" ~lo:(EInt 0) ~hi:(EInt 4)
      [ SAssign (EIndex (EVar "o", EVar "k"), EIndex (EVar "a", EVar "k"));
        SFor inner ]
  in
  Alcotest.(check (option string)) "refused"
    (Some "tiling loop 'k' whose body writes the induction variable")
    (T.tile_refusal outer)

let test_real_unroll_preserves_semantics () =
  let input = Array.init 16 (fun i -> 100 - (9 * i)) in
  List.iter
    (fun factor ->
      let prog, lid = prefix_prog () in
      let p = T.real_unroll ~factor ~loop_id:lid prog in
      Alcotest.(check (array int))
        (Printf.sprintf "unroll=%d" factor)
        (reference_prefix input) (run_prefix p input))
    [ 2; 3; 4; 16 ]

let test_invalid_factor_rejected () =
  let prog, lid = prefix_prog () in
  let cfg =
    { T.cfg_loops =
        [ (lid, { T.lc_tile = 0; lc_parallel = 1; lc_pipeline = PipeOff }) ];
      cfg_bitwidths = [] }
  in
  try
    ignore (T.apply cfg prog);
    Alcotest.fail "tile factor 0 should be rejected"
  with T.Transform_error _ -> ()

let test_unknown_loop_ignored () =
  let prog, _ = prefix_prog () in
  let cfg =
    { T.cfg_loops =
        [ (99_999, { T.lc_tile = 2; lc_parallel = 2; lc_pipeline = PipeOn }) ];
      cfg_bitwidths = [] }
  in
  let p = T.apply cfg prog in
  Alcotest.(check string) "unchanged" (to_string prog) (to_string p)

(* ---------- tree reduction ---------- *)

let reduce_prog ty op =
  let elty = match ty with CLong -> CLong | t -> t in
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 13)
      [ SAssign (EVar "s", EBin (op, EVar "s", EIndex (EVar "a", EVar "i"))) ]
  in
  let init = match ty with CLong -> ELong 0L | _ -> EInt 0 in
  let f =
    { cfname = "kernel";
      cfparams =
        [ { cpname = "a"; cpty = CPtr elty; cpbitwidth = None };
          { cpname = "o"; cpty = CPtr elty; cpbitwidth = None } ];
      cfret = None;
      cfbody =
        [ SDecl (ty, "s", Some init);
          SFor loop;
          SAssign (EIndex (EVar "o", EInt 0), EVar "s") ] }
  in
  ({ cfuncs = [ f ] }, loop.lid)

let run_reduce prog input =
  let a = Array.map (fun x -> Cinterp.VI x) input in
  let o = Array.make 1 (Cinterp.VI 0) in
  ignore
    (Cinterp.run_func prog "kernel" [ ("a", Cinterp.VA a); ("o", Cinterp.VA o) ]);
  match o.(0) with Cinterp.VI v -> v | _ -> Alcotest.fail "VI"

let test_tree_reduce_semantics () =
  let input = Array.init 13 (fun i -> (i * 5) - 17) in
  let prog, lid = reduce_prog CInt CAdd in
  let reference = run_reduce prog input in
  List.iter
    (fun lanes ->
      let p = T.tree_reduce ~lanes ~loop_id:lid prog in
      Alcotest.(check int)
        (Printf.sprintf "lanes=%d" lanes)
        reference (run_reduce p input))
    [ 2; 3; 4; 5; 13 ]

let expect_te f =
  try
    ignore (f ());
    Alcotest.fail "expected Transform_error"
  with T.Transform_error _ -> ()

let test_tree_reduce_refusals () =
  (* Floating-point accumulator: not associative. *)
  let pf, lf = reduce_prog CFloat CAdd in
  expect_te (fun () -> T.tree_reduce ~lanes:4 ~loop_id:lf pf);
  (* The accumulator read inside the reduction operand. *)
  let l =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign (EVar "s", EBin (CAdd, EVar "s", EBin (CMul, EVar "s", EInt 2))) ]
  in
  let p =
    { cfuncs =
        [ { cfname = "kernel";
            cfparams = [ { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
            cfret = None;
            cfbody = [ SDecl (CInt, "s", Some (EInt 1)); SFor l ] } ] }
  in
  expect_te (fun () -> T.tree_reduce ~lanes:2 ~loop_id:l.lid p);
  (* The accumulator as a loop bound. *)
  let l2 =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EVar "s")
      [ SAssign (EVar "s", EBin (CAdd, EVar "s", EInt 1)) ]
  in
  let p2 =
    { cfuncs =
        [ { cfname = "kernel";
            cfparams = [ { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
            cfret = None;
            cfbody = [ SDecl (CInt, "s", Some (EInt 3)); SFor l2 ] } ] }
  in
  expect_te (fun () -> T.tree_reduce ~lanes:2 ~loop_id:l2.lid p2);
  (* A body that is not a single scalar reduction. *)
  let prog, lid = prefix_prog () in
  expect_te (fun () -> T.tree_reduce ~lanes:2 ~loop_id:lid prog)

let test_tree_reduce_unknown_loop_ignored () =
  let prog, _ = reduce_prog CInt CAdd in
  let p = T.tree_reduce ~lanes:4 ~loop_id:99_999 prog in
  Alcotest.(check string) "unchanged" (to_string prog) (to_string p)

(* ---------- transformed workloads stay correct ---------- *)

let test_workload_transformed_equivalence () =
  (* Apply a real-unroll-checkable design (tiling only, which rewrites
     structure) to S-W and re-check JVM/FPGA agreement. *)
  let w = Option.get (W.find "S-W") in
  let c = W.compile w in
  let ds = c.S2fa.c_dspace in
  (* Tile every tileable loop by 4, everything else default. *)
  let cfg =
    S2fa_tuner.Space.of_list
      (List.filter_map
         (fun p ->
           let name = S2fa_tuner.Space.param_name p in
           if String.length name > 5 && String.sub name 0 5 = "tile_" then
             Some (name, S2fa_tuner.Space.VInt 4)
           else None)
         (S2fa_tuner.Space.params ds.Dspace.ds_space))
  in
  let rng = Rng.create 5 in
  let tasks = w.W.w_gen rng 6 in
  let jvm = S2fa_blaze.Blaze.map_jvm c.S2fa.c_class ~fields:[] tasks in
  let mgr = S2fa_blaze.Blaze.create_manager () in
  S2fa_blaze.Blaze.register mgr
    (S2fa.make_accelerator ~design:cfg c ~fields:[]);
  let fpga = S2fa_blaze.Blaze.map_accelerated mgr ~id:"S-W" tasks in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d" i)
        true
        (S2fa_jvm.Interp.equal_value v fpga.S2fa_blaze.Blaze.tr_values.(i)))
    jvm.S2fa_blaze.Blaze.tr_values

(* ---------- property: random tiling of random kernels is sound ---------- *)

let prop_tiling_sound =
  QCheck.Test.make ~name:"tiling preserves prefix sums" ~count:100
    QCheck.(pair (int_range 2 16) (list_of_size (Gen.return 16) (int_range (-50) 50)))
    (fun (tile, input) ->
      let input = Array.of_list input in
      let prog, lid = prefix_prog () in
      let cfg =
        { T.cfg_loops =
            [ (lid, { T.lc_tile = tile; lc_parallel = 1; lc_pipeline = PipeOff }) ];
          cfg_bitwidths = [] }
      in
      let p = T.apply cfg prog in
      run_prefix p input = reference_prefix input)

(* ---------- property: chains of transforms compose soundly ---------- *)

(* A random chain of 2-4 legal Merlin transforms, each picking its target
   loop from the program produced by the previous step (so a tile can
   land on the fresh inner loop of an earlier tile). Legality constraint
   of the rewriters: structural transforms (tiling, real unrolling) only
   apply to step-1 loops; pragma-only configs apply anywhere. *)

let collect_loops prog =
  let acc = ref [] in
  List.iter
    (fun (f : cfunc) ->
      Csyntax.iter_loops (fun _path l -> acc := l :: !acc) f.cfbody)
    prog.cfuncs;
  List.rev !acc

let random_transform rng prog =
  let loops = collect_loops prog in
  let unit_step = List.filter (fun (l : loop) -> l.lstep = 1) loops in
  let pipe_modes = [| PipeOff; PipeOn; PipeFlatten |] in
  let pragma_only () =
    (* Always legal, on any loop of the current program. *)
    let l = Rng.choose_list rng loops in
    let lc =
      { T.lc_tile = 1;
        lc_parallel = Rng.int_in rng 2 8;
        lc_pipeline = Rng.choose rng pipe_modes }
    in
    T.apply { T.cfg_loops = [ (l.lid, lc) ]; cfg_bitwidths = [] } prog
  in
  match (Rng.int rng 3, unit_step) with
  | _, [] | 2, _ -> pragma_only ()
  | 0, candidates ->
    let l = Rng.choose_list rng candidates in
    let lc =
      { T.lc_tile = Rng.int_in rng 2 8;
        lc_parallel = Rng.int_in rng 2 8;
        lc_pipeline = Rng.choose rng pipe_modes }
    in
    T.apply { T.cfg_loops = [ (l.lid, lc) ]; cfg_bitwidths = [] } prog
  | _, candidates ->
    let l = Rng.choose_list rng candidates in
    T.real_unroll ~factor:(Rng.int_in rng 2 8) ~loop_id:l.lid prog

(* ---------- property: symbolic verdict agrees with the concrete
   oracle ---------- *)

(* Break a transformed program observably: bump the accumulator's
   initializer, shifting every prefix sum by one. *)
let bump_acc_init prog =
  let rec fix ss =
    List.map
      (function
        | SDecl (t, n, Some (EInt 0)) when String.equal n "acc" ->
          SDecl (t, n, Some (EInt 1))
        | SFor l -> SFor { l with lbody = fix l.lbody }
        | SIf (c, a, b) -> SIf (c, fix a, fix b)
        | SWhile (c, b) -> SWhile (c, fix b)
        | s -> s)
      ss
  in
  { cfuncs = List.map (fun f -> { f with cfbody = fix f.cfbody }) prog.cfuncs }

let concretely_refutes p1 p2 (cx : Sym.counterexample) =
  let deep = function
    | Cinterp.VA a -> Cinterp.VA (Array.copy a)
    | v -> v
  in
  let run p =
    let args = List.map (fun (n, v) -> (n, deep v)) cx.Sym.cx_args in
    match Cinterp.run_func p "kernel" args with
    | ret -> Ok (ret, args)
    | exception Cinterp.C_error m -> Error m
  in
  match (run p1, run p2) with
  | Ok (r1, a1), Ok (r2, a2) ->
    not
      (r1 = r2
      && List.for_all2
           (fun (_, x) (_, y) -> Cinterp.equal_cvalue x y)
           a1 a2)
  | Error _, Error _ -> false
  | _ -> true

let sym_caps = [ ("a", 16); ("o", 16) ]

let prop_symbolic_agrees_with_concrete =
  QCheck.Test.make
    ~name:
      "symbolic verdict agrees with the concrete differential oracle; \
       counterexamples concretely refute"
    ~count:60
    QCheck.(pair bool (int_range 0 1_000_000))
    (fun (break, seed) ->
      let rng = Rng.create seed in
      let prog, _ = prefix_prog () in
      let p2 = ref prog in
      for _ = 1 to Rng.int_in rng 1 3 do
        p2 := random_transform rng !p2
      done;
      let p2 = if break then bump_acc_init !p2 else !p2 in
      match Sym.equiv ~caps:sym_caps ~seed prog p2 "kernel" with
      | Sym.Proved _ ->
        (* The concrete oracle must find nothing to disagree with. *)
        Sym.refute ~caps:sym_caps ~seed prog p2 "kernel" = None
      | Sym.Refuted cx ->
        (* Only broken rewrites may be refuted, and the witness must
           independently re-refute through Cinterp. *)
        break && concretely_refutes prog p2 cx
      | Sym.Unknown _ ->
        (* Never Unknown on these bounded integer kernels. *)
        false)

let prop_transform_chains_sound =
  QCheck.Test.make ~name:"chains of 2-4 transforms preserve semantics"
    ~count:200
    QCheck.(pair (int_range 2 4) (int_range 0 1_000_000))
    (fun (len, seed) ->
      let rng = Rng.create seed in
      let prog, _ = prefix_prog () in
      let prog = ref prog in
      for _ = 1 to len do
        prog := random_transform rng !prog
      done;
      let input = Array.init 16 (fun i -> Rng.int_in rng (-50) 50 + i) in
      run_prefix !prog input = reference_prefix input)

let () =
  Alcotest.run "merlin"
    [ ( "transform",
        [ Alcotest.test_case "pragma application" `Quick test_apply_pragmas;
          Alcotest.test_case "pragmas keep semantics" `Quick
            test_pragmas_do_not_change_semantics;
          Alcotest.test_case "tiling keeps semantics" `Quick
            test_tiling_preserves_semantics;
          Alcotest.test_case "tiling splits the loop" `Quick
            test_tiling_changes_loop_structure;
          Alcotest.test_case "fresh names avoid capture" `Quick
            test_fresh_names_avoid_capture;
          Alcotest.test_case "one counter name tiled twice" `Quick
            test_same_counter_tiled_twice;
          Alcotest.test_case "nested loop writing the counter" `Quick
            test_nested_loop_writing_counter;
          Alcotest.test_case "real unroll keeps semantics" `Quick
            test_real_unroll_preserves_semantics;
          Alcotest.test_case "invalid factor rejected" `Quick
            test_invalid_factor_rejected;
          Alcotest.test_case "unknown loop ignored" `Quick
            test_unknown_loop_ignored;
          Alcotest.test_case "transformed workload equivalence" `Quick
            test_workload_transformed_equivalence ] );
      ( "tree-reduce",
        [ Alcotest.test_case "semantics preserved" `Quick
            test_tree_reduce_semantics;
          Alcotest.test_case "illegal shapes refused" `Quick
            test_tree_reduce_refusals;
          Alcotest.test_case "unknown loop ignored" `Quick
            test_tree_reduce_unknown_loop_ignored ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tiling_sound; prop_transform_chains_sound;
            prop_symbolic_agrees_with_concrete ] ) ]
