(* The bounded symbolic evaluator: equivalence proofs for legal Merlin
   rewrites, concrete counterexamples for broken ones, honest Unknown
   verdicts where neither is possible, and the coverage signal. *)
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Sym = S2fa_sym.Sym
module T = S2fa_merlin.Transform
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Fuzz = S2fa_fuzz.Fuzz
module Dspace = S2fa_dse.Dspace
module Space = S2fa_tuner.Space
module Rng = S2fa_util.Rng
module Pretty = S2fa_scala.Pretty
open Csyntax

(* The reference kernel used throughout: prefix sums into a buffer. *)
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

let prefix_caps = [ ("a", 16); ("o", 16) ]

let tile_cfg lid t =
  { T.cfg_loops =
      [ (lid, { T.lc_tile = t; lc_parallel = 1; lc_pipeline = PipeOff }) ];
    cfg_bitwidths = [] }

let check_proved name v =
  match v with
  | Sym.Proved st ->
    Alcotest.(check bool) (name ^ ": proved some outputs") true
      (st.Sym.pv_outputs > 0)
  | v -> Alcotest.failf "%s: expected Proved, got %a" name Sym.pp_verdict v

(* A refutation must carry a witness that independently re-refutes: both
   programs re-run through Cinterp on cx_args from scratch must actually
   disagree (or trap on exactly one side). *)
let check_refuted name p1 p2 v =
  match v with
  | Sym.Refuted cx ->
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
    (match (run p1, run p2) with
    | Ok (r1, a1), Ok (r2, a2) ->
      let eq =
        r1 = r2
        && List.for_all2
             (fun (_, x) (_, y) -> Cinterp.equal_cvalue x y)
             a1 a2
      in
      Alcotest.(check bool) (name ^ ": witness refutes concretely") false eq
    | Error _, Error _ ->
      Alcotest.failf "%s: witness traps both programs" name
    | _ -> (* a one-sided trap is a genuine behavioural difference *) ())
  | v -> Alcotest.failf "%s: expected Refuted, got %a" name Sym.pp_verdict v

(* ---------- proofs ---------- *)

let identity () =
  let p, _ = prefix_prog () in
  Sym.equiv ~caps:prefix_caps p p "kernel"

let test_identity_proved () = check_proved "identity" (identity ())

let tile_unroll () =
  let p, lid = prefix_prog () in
  List.map
    (fun (name, p2) -> (name, Sym.equiv ~caps:prefix_caps p p2 "kernel"))
    [ ("tile 4 (even)", T.apply (tile_cfg lid 4) p);
      ("tile 5 (remainder)", T.apply (tile_cfg lid 5) p);
      ("unroll 3", T.real_unroll ~factor:3 ~loop_id:lid p) ]

let test_tile_unroll_proved () =
  List.iter (fun (name, v) -> check_proved name v) (tile_unroll ())

(* The normalizer itself: a fully left-associated sum against its
   right-associated, commuted regrouping — exactly the shape tree
   reduction produces. *)
let regrouped_sum () =
  let sum_prog e =
    { cfuncs =
        [ { cfname = "kernel";
            cfparams =
              [ { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None };
                { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
            cfret = None;
            cfbody = [ SAssign (EIndex (EVar "o", EInt 0), e) ] } ] }
  in
  let a i = EIndex (EVar "a", EInt i) in
  let left =
    EBin (CAdd, EBin (CAdd, EBin (CAdd, a 0, a 1), a 2), a 3)
  in
  let regrouped =
    EBin (CAdd, EBin (CAdd, a 3, a 1), EBin (CAdd, a 2, a 0))
  in
  Sym.equiv ~caps:[ ("a", 4); ("o", 1) ] (sum_prog left) (sum_prog regrouped)
    "kernel"

let test_regrouped_sum_proved () =
  check_proved "regrouped int sum" (regrouped_sum ())

(* ---------- tree reduction ---------- *)

let reduce_prog ?(n = 13) ty op =
  let elty = match ty with CLong -> CLong | t -> t in
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt n)
      [ SAssign (EVar "s", EBin (op, EVar "s", EIndex (EVar "a", EVar "i"))) ]
  in
  let init =
    match ty with
    | CLong -> ELong 0L
    | CFloat | CDouble -> EFloat 0.0
    | _ -> EInt 0
  in
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

let reduce_caps = [ ("a", 13); ("o", 1) ]

let tree_reductions () =
  List.map
    (fun (name, ty, op, lanes) ->
      let p, lid = reduce_prog ty op in
      let p2 = T.tree_reduce ~lanes ~loop_id:lid p in
      (name, Sym.equiv ~caps:reduce_caps p p2 "kernel"))
    [ ("int sum, 4 lanes", CInt, CAdd, 4);
      ("int product, 3 lanes", CInt, CMul, 3);
      ("long sum, 5 lanes", CLong, CAdd, 5) ]

let test_tree_reduce_proved () =
  List.iter (fun (name, v) -> check_proved name v) (tree_reductions ())

let test_tree_reduce_refuses_float () =
  let p, lid = reduce_prog CFloat CAdd in
  try
    ignore (T.tree_reduce ~lanes:4 ~loop_id:lid p);
    Alcotest.fail "float reduction must be refused"
  with T.Transform_error m ->
    Alcotest.(check bool) "mentions associativity" true
      (let rec has i =
         i + 11 <= String.length m
         && (String.sub m i 11 = "associative" || has (i + 1))
       in
       has 0)

(* ---------- mutation negatives: broken rewrites are refuted ---------- *)

(* Off-by-one tile bound: decrement the tile guard the transform emits. *)
let broken_tile () =
  let p, lid = prefix_prog () in
  let p2 = T.apply (tile_cfg lid 4) p in
  let rec fix_stmts ss = List.map fix_stmt ss
  and fix_stmt = function
    | SIf (EBin (CLt, v, EInt n), a, b) ->
      SIf (EBin (CLt, v, EInt (n - 1)), fix_stmts a, fix_stmts b)
    | SIf (c, a, b) -> SIf (c, fix_stmts a, fix_stmts b)
    | SFor l -> SFor { l with lbody = fix_stmts l.lbody }
    | SWhile (c, b) -> SWhile (c, fix_stmts b)
    | s -> s
  in
  let broken =
    { cfuncs =
        List.map (fun f -> { f with cfbody = fix_stmts f.cfbody }) p2.cfuncs }
  in
  (p, broken, Sym.equiv ~caps:prefix_caps p broken "kernel")

let test_broken_tile_refuted () =
  let p, broken, v = broken_tile () in
  check_refuted "off-by-one tile bound" p broken v

(* Dropped reduction init: a tree-reduced sum whose lane 0 starts at 7
   instead of the identity. *)
let dropped_init () =
  let p, lid = reduce_prog CInt CAdd in
  let p2 = T.tree_reduce ~lanes:4 ~loop_id:lid p in
  let rec fix_stmts ss = List.map fix_stmt ss
  and fix_stmt = function
    | SDecl (t, n, Some _) when String.equal n "s_r0" ->
      SDecl (t, n, Some (EInt 7))
    | SFor l -> SFor { l with lbody = fix_stmts l.lbody }
    | SIf (c, a, b) -> SIf (c, fix_stmts a, fix_stmts b)
    | s -> s
  in
  let broken =
    { cfuncs =
        List.map (fun f -> { f with cfbody = fix_stmts f.cfbody }) p2.cfuncs }
  in
  (p, broken, Sym.equiv ~caps:reduce_caps p broken "kernel")

let test_dropped_init_refuted () =
  let p, broken, v = dropped_init () in
  check_refuted "dropped reduction init" p broken v

(* Reordered float reduction: s += a[i]/3 summed sequentially vs in two
   strided lanes. The divisions round, so the regrouped sum differs on
   concrete inputs — the verifier must find and confirm such a witness. *)
let float_seq_prog () =
  let body i = EBin (CDiv, EIndex (EVar "a", i), EFloat 3.0) in
  let mk stmts =
    { cfuncs =
        [ { cfname = "kernel";
            cfparams =
              [ { cpname = "a"; cpty = CPtr CFloat; cpbitwidth = None };
                { cpname = "o"; cpty = CPtr CFloat; cpbitwidth = None } ];
            cfret = None;
            cfbody = stmts } ] }
  in
  let seq =
    let l =
      mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 6)
        [ SAssign (EVar "s", EBin (CAdd, EVar "s", body (EVar "i"))) ]
    in
    mk
      [ SDecl (CFloat, "s", Some (EFloat 0.0));
        SFor l;
        SAssign (EIndex (EVar "o", EInt 0), EVar "s") ]
  in
  let lanes =
    let l =
      mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 6) ~step:2
        [ SAssign (EVar "s0", EBin (CAdd, EVar "s0", body (EVar "i")));
          SAssign
            ( EVar "s1",
              EBin (CAdd, EVar "s1", body (EBin (CAdd, EVar "i", EInt 1))) ) ]
    in
    mk
      [ SDecl (CFloat, "s0", Some (EFloat 0.0));
        SDecl (CFloat, "s1", Some (EFloat 0.0));
        SFor l;
        SAssign
          (EIndex (EVar "o", EInt 0), EBin (CAdd, EVar "s0", EVar "s1")) ]
  in
  (seq, lanes)

let float_caps = [ ("a", 6); ("o", 1) ]

let float_reorder () =
  let seq, lanes = float_seq_prog () in
  (seq, lanes, Sym.equiv ~caps:float_caps ~samples:64 seq lanes "kernel")

let test_float_reorder_refuted () =
  let seq, lanes, v = float_reorder () in
  check_refuted "reordered float reduce" seq lanes v

(* The same regrouping over exact float values (no rounding anywhere):
   symbolically unequal, concretely indistinguishable — the verifier
   must say Unknown rather than invent a refutation. *)
let float_store e =
  { cfuncs =
      [ { cfname = "kernel";
          cfparams =
            [ { cpname = "a"; cpty = CPtr CFloat; cpbitwidth = None };
              { cpname = "o"; cpty = CPtr CFloat; cpbitwidth = None } ];
          cfret = None;
          cfbody = [ SAssign (EIndex (EVar "o", EInt 0), e) ] } ] }

let float_exact_regroup () =
  let a i = EIndex (EVar "a", EInt i) in
  let left = EBin (CAdd, EBin (CAdd, a 0, a 1), a 2) in
  let right = EBin (CAdd, a 0, EBin (CAdd, a 1, a 2)) in
  Sym.equiv ~caps:[ ("a", 3); ("o", 1) ] (float_store left)
    (float_store right) "kernel"

let test_float_exact_reorder_unknown () =
  match float_exact_regroup () with
  | Sym.Unknown _ -> ()
  | v ->
    Alcotest.failf "expected Unknown for exact float regroup, got %a"
      Sym.pp_verdict v

(* Float constants are terms of their own bit pattern: 0.0 and -0.0 stay
   apart (the concrete refuter's float equality cannot tell them apart,
   so the verdict is an honest Unknown) and NaN meets NaN. *)
let signed_zero () =
  Sym.equiv ~caps:[ ("a", 1); ("o", 1) ] (float_store (EFloat 0.0))
    (float_store (EFloat (-0.0))) "kernel"

let test_signed_zero_unknown () =
  let want = "symbolic mismatch without a concrete witness" in
  match signed_zero () with
  | Sym.Unknown m
    when String.length m >= String.length want
         && String.sub m 0 (String.length want) = want ->
    ()
  | v -> Alcotest.failf "expected Unknown (%s), got %a" want Sym.pp_verdict v

let nan_stores () =
  Sym.equiv ~caps:[ ("a", 1); ("o", 1) ] (float_store (EFloat Float.nan))
    (float_store (EFloat Float.nan)) "kernel"

let test_nan_stores_proved () = check_proved "NaN stores" (nan_stores ())

(* ---------- limits ---------- *)

let symbolic_while () =
  let p =
    { cfuncs =
        [ { cfname = "kernel";
            cfparams =
              [ { cpname = "n"; cpty = CInt; cpbitwidth = None };
                { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
            cfret = None;
            cfbody =
              [ SDecl (CInt, "i", Some (EInt 0));
                SWhile
                  ( EBin (CLt, EVar "i", EVar "n"),
                    [ SAssign (EVar "i", EBin (CAdd, EVar "i", EInt 1)) ] );
                SAssign (EIndex (EVar "o", EInt 0), EVar "i") ] } ] }
  in
  Sym.equiv ~caps:[ ("o", 1) ] p p "kernel"

let test_symbolic_while_unknown () =
  match symbolic_while () with
  | Sym.Unknown _ -> ()
  | v -> Alcotest.failf "expected Unknown for symbolic while, got %a"
           Sym.pp_verdict v

(* The loop id is fixed because the verdict names it. *)
let trip_budget () =
  let l = { (mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 1000) []) with lid = 1 } in
  let p =
    { cfuncs =
        [ { cfname = "kernel";
            cfparams = [ { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
            cfret = None;
            cfbody = [ SFor l ] } ] }
  in
  let budget = { Sym.default_budget with Sym.bg_trip = 100 } in
  Sym.equiv ~budget ~caps:[ ("o", 1) ] p p "kernel"

let test_trip_budget_unknown () =
  match trip_budget () with
  | Sym.Unknown _ -> ()
  | v -> Alcotest.failf "expected Unknown past trip budget, got %a"
           Sym.pp_verdict v

(* Giving up is always sound, so programs the walk cannot run are
   Unknown (an Error for coverage) with a message naming the function or
   the array, never a library exception. *)
let mentions name m =
  let n = String.length name in
  let rec go i = i + n <= String.length m && (String.sub m i n = name || go (i + 1)) in
  go 0

let check_gives_up what name p =
  (match Sym.equiv ~caps:[ ("o", 1) ] p p "kernel" with
  | Sym.Unknown m when mentions name m -> ()
  | v -> Alcotest.failf "%s: expected Unknown naming %s, got %a" what name Sym.pp_verdict v);
  match Sym.coverage ~caps:[ ("o", 1) ] p "kernel" with
  | Error m when mentions name m -> ()
  | Error m -> Alcotest.failf "%s: coverage error does not name %s: %s" what name m
  | Ok _ -> Alcotest.failf "%s: coverage must give up" what

let out_kernel body =
  { cfname = "kernel";
    cfparams = [ { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
    cfret = None;
    cfbody = body }

let test_arity_unknown () =
  let twice =
    { cfname = "twice";
      cfparams = [ { cpname = "x"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody = [ SReturn (Some (EBin (CMul, EVar "x", EInt 2))) ] }
  in
  check_gives_up "arity" "twice"
    { cfuncs =
        [ out_kernel
            [ SAssign (EIndex (EVar "o", EInt 0), ECall ("twice", [ EInt 1; EInt 2 ])) ];
          twice ] }

let test_negative_array_unknown () =
  check_gives_up "negative size" "window"
    { cfuncs =
        [ out_kernel
            [ SDecl (CArr (CInt, -4), "window", None);
              SAssign (EIndex (EVar "o", EInt 0), EInt 1) ] ] }

(* The term budget is exact across the intern table's growth: an
   identity proof that interns [n] terms gives up at a budget of [n] and
   proves with [n] terms at [n + 1]. AES grows the table six times. *)
let test_term_budget_exact () =
  List.iter
    (fun (name, n) ->
      let c = W.compile (Option.get (W.find name)) in
      let flat = c.S2fa.c_flat in
      let prove nodes =
        Sym.equiv
          ~budget:{ Sym.default_budget with Sym.bg_nodes = nodes }
          ~caps:(Fuzz.scale_caps ~tasks:2 c.S2fa.c_buffer_elems)
          ~bindings:[ ("N", Cinterp.VI 2) ]
          flat flat "kernel"
      in
      (match prove n with
      | Sym.Unknown "term budget exhausted" -> ()
      | v ->
        Alcotest.failf "%s at a budget of %d: expected the budget to run out, got %a"
          name n Sym.pp_verdict v);
      match prove (n + 1) with
      | Sym.Proved st -> Alcotest.(check int) (name ^ " terms") n st.Sym.pv_nodes
      | v ->
        Alcotest.failf "%s at a budget of %d: expected Proved, got %a" name
          (n + 1) Sym.pp_verdict v)
    [ ("AES", 164_641); ("S-W", 119_179); ("PR", 651) ]

(* ---------- transform self-check backstop ---------- *)

let test_self_check_passes_legal () =
  T.set_self_check true;
  Fun.protect
    ~finally:(fun () -> T.set_self_check false)
    (fun () ->
      Alcotest.(check bool) "enabled" true (T.self_check_enabled ());
      let p, lid = prefix_prog () in
      ignore (T.apply (tile_cfg lid 4) p);
      ignore (T.real_unroll ~factor:3 ~loop_id:lid p);
      let rp, rlid = reduce_prog CInt CAdd in
      ignore (T.tree_reduce ~lanes:4 ~loop_id:rlid rp))

(* ---------- coverage ---------- *)

let branchy_prog () =
  let l =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SIf
          ( EBin (CGt, EIndex (EVar "a", EVar "i"), EInt 0),
            [ SAssign (EIndex (EVar "o", EVar "i"), EInt 1) ],
            [ SAssign (EIndex (EVar "o", EVar "i"), EInt 0) ] ) ]
  in
  { cfuncs =
      [ { cfname = "kernel";
          cfparams =
            [ { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None };
              { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
          cfret = None;
          cfbody = [ SFor l ] } ] }

let test_coverage_deterministic () =
  let p = branchy_prog () in
  let caps = [ ("a", 8); ("o", 8) ] in
  let c1 = Sym.coverage ~caps p "kernel" in
  let c2 = Sym.coverage ~caps p "kernel" in
  (match c1 with
  | Ok feats ->
    Alcotest.(check bool) "branchy kernel has features" true (feats <> []);
    Alcotest.(check bool) "sorted" true
      (List.sort_uniq compare feats = feats)
  | Error m -> Alcotest.failf "coverage gave up: %s" m);
  Alcotest.(check bool) "same features twice" true (c1 = c2)

let test_coverage_distinguishes () =
  let p1 = branchy_prog () in
  let p2, _ = prefix_prog () in
  let f1 = Sym.coverage ~caps:[ ("a", 8); ("o", 8) ] p1 "kernel" in
  let f2 = Sym.coverage ~caps:prefix_caps p2 "kernel" in
  Alcotest.(check bool) "different programs, different features" true
    (f1 <> f2)

(* ---------- concrete refuter ---------- *)

let test_refute_finds_witness () =
  let p, lid = prefix_prog () in
  let p2 = T.apply (tile_cfg lid 4) p in
  Alcotest.(check bool) "legal rewrite: no witness" true
    (Sym.refute ~caps:prefix_caps p p2 "kernel" = None);
  let rec drop_store ss =
    List.concat_map
      (function
        | SAssign (EIndex (EVar "o", EVar "i"), _) -> []
        | SFor l -> [ SFor { l with lbody = drop_store l.lbody } ]
        | SIf (c, a, b) -> [ SIf (c, drop_store a, drop_store b) ]
        | s -> [ s ])
      ss
  in
  let broken =
    { cfuncs =
        List.map (fun f -> { f with cfbody = drop_store f.cfbody }) p2.cfuncs }
  in
  Alcotest.(check bool) "dropped store: witness found" true
    (Sym.refute ~caps:prefix_caps p broken "kernel" <> None)

(* ---------- behaviour golden ---------- *)

(* golden/sym_runs.txt pins every verdict below with its [Proved] stats
   and every coverage fingerprint list, so that a change to the term
   layer or the walk that moves a proof shows up as a diff. The file
   holds one section per test case, in [sections] order; a section is
   the lines starting with its key. [S2FA_UPDATE_GOLDEN=1] rewrites the
   running case's section and keeps the others. *)
let golden_path =
  (* dune runtest runs us in test/; a bare [dune exec] runs from the
     workspace root. *)
  let dir =
    if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
    else "test/golden"
  in
  Filename.concat dir "sym_runs.txt"

let sections = [ "proof"; "hand"; "coverage"; "kcov" ]

let check_golden key lines =
  let key_of l =
    match String.index_opt l ' ' with Some i -> String.sub l 0 i | None -> l
  in
  let stored =
    if Sys.file_exists golden_path then
      String.split_on_char '\n'
        (In_channel.with_open_bin golden_path In_channel.input_all)
      |> List.filter (fun l -> l <> "")
    else []
  in
  let section k = List.filter (fun l -> key_of l = k) stored in
  if Sys.getenv_opt "S2FA_UPDATE_GOLDEN" = Some "1" then
    Out_channel.with_open_bin golden_path (fun oc ->
        List.iter
          (fun k ->
            List.iter
              (fun l -> Out_channel.output_string oc (l ^ "\n"))
              (if k = key then lines else section k))
          sections)
  else begin
    (* Report the first differing line, not a megabyte of text. *)
    let rec first k = function
      | w :: ws, g :: gs -> if w = g then first (k + 1) (ws, gs) else Some (k, w, g)
      | [], [] -> None
      | w :: _, [] -> Some (k, w, "<end of output>")
      | [], g :: _ -> Some (k, "<end of golden>", g)
    in
    match first 1 (section key, lines) with
    | None -> ()
    | Some (k, w, g) ->
      Alcotest.failf "%s: %s line %d differs\n  golden: %s\n  actual: %s"
        golden_path key k w g
  end

let verdict_str v =
  match v with
  | Sym.Proved st ->
    Printf.sprintf "proved outputs=%d nodes=%d steps=%d paths=%d"
      st.Sym.pv_outputs st.Sym.pv_nodes st.Sym.pv_steps st.Sym.pv_paths
  | v -> Format.asprintf "%a" Sym.pp_verdict v

let test_hand_golden () =
  let third (_, _, v) = v in
  check_golden "hand"
    (List.map
       (fun (label, v) ->
         Format.asprintf "hand %s: %a%s" label Sym.pp_verdict v
           (match v with
           | Sym.Proved st -> Printf.sprintf ", %d steps" st.Sym.pv_steps
           | _ -> ""))
       ([ ("identity", identity ()) ]
       @ tile_unroll ()
       @ [ ("regrouped int sum", regrouped_sum ()) ]
       @ tree_reductions ()
       @ [ ("off-by-one tile bound", third (broken_tile ()));
           ("dropped reduction init", third (dropped_init ()));
           ("reordered float reduce", third (float_reorder ()));
           ("exact float regroup", float_exact_regroup ());
           ("signed zero", signed_zero ());
           ("NaN stores", nan_stores ());
           ("symbolic while", symbolic_while ());
           ("trip budget", trip_budget ()) ]))

(* ---------- workloads ---------- *)

let workloads = [ "PR"; "KMeans"; "KNN"; "LR"; "SVM"; "LLS"; "AES"; "S-W" ]

let workload_caps c ~tasks = Fuzz.scale_caps ~tasks c.S2fa.c_buffer_elems

let coverage_line label = function
  | Ok feats ->
    Printf.sprintf "coverage %s: [%s]" label
      (String.concat " " (List.map string_of_int feats))
  | Error m -> Printf.sprintf "coverage %s: error %s" label m

(* Sym.coverage of the two hand-built kernels, the eight flat workloads
   on 2 tasks and the Fuzz.gen_c_kernel kernels (N = 4, [in] and [out]
   of Fuzz.c_cap), whose shadowing declarations exercise scoping. *)
let test_coverage_golden () =
  let hand =
    [ coverage_line "branchy"
        (Sym.coverage ~caps:[ ("a", 8); ("o", 8) ] (branchy_prog ()) "kernel");
      coverage_line "prefix"
        (Sym.coverage ~caps:prefix_caps (fst (prefix_prog ())) "kernel") ]
  in
  let flat =
    List.map
      (fun name ->
        let c = W.compile (Option.get (W.find name)) in
        coverage_line ("flat " ^ name)
          (Sym.coverage ~caps:(workload_caps c ~tasks:2)
             ~bindings:[ ("N", Cinterp.VI 2) ]
             c.S2fa.c_flat "kernel"))
      workloads
  in
  let ckernels =
    List.init 300 (fun seed ->
        coverage_line
          (Printf.sprintf "ckernel %d" seed)
          (Sym.coverage
             ~caps:[ ("in", Fuzz.c_cap); ("out", Fuzz.c_cap) ]
             ~bindings:[ ("N", Cinterp.VI 4) ]
             (Fuzz.gen_c_kernel (Rng.create seed))
             "kernel"))
  in
  check_golden "coverage" (hand @ flat @ ckernels)

(* Fuzz.kernel_coverage, the fuzzer's coverage signal, over generated
   MiniScala kernels. *)
let test_kernel_coverage_golden () =
  check_golden "kcov"
    (List.init 200 (fun seed ->
         let ast, len = Fuzz.gen_kernel (Rng.create seed) in
         Printf.sprintf "kcov %d: [%s]" seed
           (String.concat " "
              (List.map string_of_int
                 (Fuzz.kernel_coverage ~len (Pretty.to_string ast))))))

let test_workload_identity_proved () =
  List.iter
    (fun name ->
      let w = Option.get (W.find name) in
      let c = W.compile w in
      let flat = c.S2fa.c_flat in
      let caps = workload_caps c ~tasks:2 in
      check_proved name
        (Sym.equiv ~caps ~bindings:[ ("N", Cinterp.VI 2) ] flat flat "kernel"))
    workloads

(* Every proof of [s2fa verify --all --symbolic] at seed 7, plus its two
   random design-space configs at seed 1009, in the CLI's order: every
   legal per-loop tile/unroll/tree reduction on all 8 paper workloads
   proves, and each proof's stats are pinned in the golden. Loop ids
   are process-wide, so a tag numbers a kernel's loops from its first
   one ([L1] is the kernel's lowest id). *)
let test_workload_transforms_proved () =
  let lines =
    List.concat_map
      (fun name ->
        let w = Option.get (W.find name) in
        let c = W.compile w in
        let flat = c.S2fa.c_flat in
        let caps = workload_caps c ~tasks:2 in
        let bindings = [ ("N", Cinterp.VI 2) ] in
        let prove ~seed tag mk =
          match mk () with
          | exception T.Transform_error _ -> []
          | p2 ->
            let v = Sym.equiv ~caps ~bindings ~seed flat p2 "kernel" in
            check_proved (Printf.sprintf "%s %s" name tag) v;
            [ Printf.sprintf "proof %s %s: %s" name tag (verdict_str v) ]
        in
        let lids = ref [] in
        List.iter
          (fun (f : cfunc) ->
            iter_loops
              (fun _ l -> if l.lstep = 1 then lids := l.lid :: !lids)
              f.cfbody)
          flat.cfuncs;
        let lids = List.rev !lids in
        let base = List.fold_left min max_int lids - 1 in
        let per_loop =
          List.concat_map
            (fun lid ->
              List.concat_map
                (fun (kind, mk) ->
                  prove ~seed:7 (Printf.sprintf "%s@L%d" kind (lid - base)) mk)
                [ ("tile4", fun () -> T.apply (tile_cfg lid 4) flat);
                  ("unroll3",
                   fun () -> T.real_unroll ~factor:3 ~loop_id:lid flat);
                  ("reduce4",
                   fun () -> T.tree_reduce ~lanes:4 ~loop_id:lid flat) ])
            lids
        in
        let configs seed =
          let ds = Dspace.identify flat in
          let rng = Rng.create seed in
          List.concat_map
            (fun k ->
              prove ~seed (Printf.sprintf "cfg%d seed=%d" k seed) (fun () ->
                  T.apply
                    (Dspace.to_merlin ds
                       (Space.random_cfg rng ds.Dspace.ds_space))
                    flat))
            [ 1; 2 ]
        in
        per_loop @ configs 7 @ configs 1009)
      workloads
  in
  check_golden "proof" lines

let () =
  Alcotest.run "sym"
    [ ( "proofs",
        [ Alcotest.test_case "identity" `Quick test_identity_proved;
          Alcotest.test_case "tile + unroll" `Quick test_tile_unroll_proved;
          Alcotest.test_case "regrouped int sum" `Quick
            test_regrouped_sum_proved;
          Alcotest.test_case "tree reduction" `Quick test_tree_reduce_proved
        ] );
      ( "negatives",
        [ Alcotest.test_case "off-by-one tile bound" `Quick
            test_broken_tile_refuted;
          Alcotest.test_case "dropped reduction init" `Quick
            test_dropped_init_refuted;
          Alcotest.test_case "reordered float reduce" `Quick
            test_float_reorder_refuted;
          Alcotest.test_case "float reduction refused" `Quick
            test_tree_reduce_refuses_float ] );
      ( "limits",
        [ Alcotest.test_case "exact float regroup is Unknown" `Quick
            test_float_exact_reorder_unknown;
          Alcotest.test_case "symbolic while is Unknown" `Quick
            test_symbolic_while_unknown;
          Alcotest.test_case "trip budget is Unknown" `Quick
            test_trip_budget_unknown;
          Alcotest.test_case "0.0 and -0.0 stay apart" `Quick
            test_signed_zero_unknown;
          Alcotest.test_case "NaN meets NaN" `Quick test_nan_stores_proved;
          Alcotest.test_case "arity mismatch is Unknown" `Quick
            test_arity_unknown;
          Alcotest.test_case "negative array size is Unknown" `Quick
            test_negative_array_unknown;
          Alcotest.test_case "term budget is exact across growth" `Quick
            test_term_budget_exact ] );
      ( "self-check",
        [ Alcotest.test_case "legal rewrites pass" `Quick
            test_self_check_passes_legal ] );
      ( "coverage",
        [ Alcotest.test_case "deterministic" `Quick
            test_coverage_deterministic;
          Alcotest.test_case "distinguishes programs" `Quick
            test_coverage_distinguishes ] );
      ( "refuter",
        [ Alcotest.test_case "finds witnesses" `Quick
            test_refute_finds_witness ] );
      ( "workloads",
        [ Alcotest.test_case "identity on all 8" `Slow
            test_workload_identity_proved;
          Alcotest.test_case "all legal rewrites on all 8" `Slow
            test_workload_transforms_proved ] );
      ( "golden",
        [ Alcotest.test_case "hand-built verdicts pinned" `Quick
            test_hand_golden;
          Alcotest.test_case "coverage fingerprints pinned" `Quick
            test_coverage_golden;
          Alcotest.test_case "kernel coverage pinned" `Quick
            test_kernel_coverage_golden ] ) ]
