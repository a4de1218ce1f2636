(* C AST, printer, interpreter and analysis tests. *)
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Canalysis = S2fa_hlsc.Canalysis
open Csyntax

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A little factorial function in the C AST:
   int fact(int n) { int r = 1; for (i = 1; i < n+1; i++) r = r * i; return r; } *)
let fact_func =
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 1)
      ~hi:(EBin (CAdd, EVar "n", EInt 1))
      [ SAssign (EVar "r", EBin (CMul, EVar "r", EVar "i")) ]
  in
  { cfname = "fact";
    cfparams = [ { cpname = "n"; cpty = CInt; cpbitwidth = None } ];
    cfret = Some CInt;
    cfbody = [ SDecl (CInt, "r", Some (EInt 1)); SFor loop; SReturn (Some (EVar "r")) ] }

let fact_prog = { cfuncs = [ fact_func ] }

let test_interp_fact () =
  match Cinterp.run_func fact_prog "fact" [ ("n", Cinterp.VI 6) ] with
  | Some (Cinterp.VI 720) -> ()
  | _ -> Alcotest.fail "6! = 720"

let test_interp_buffers_mutate () =
  (* void fill(int *buf) { for (i=0;i<4;i++) buf[i] = i*i; } *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 4)
      [ SAssign (EIndex (EVar "buf", EVar "i"), EBin (CMul, EVar "i", EVar "i")) ]
  in
  let f =
    { cfname = "fill";
      cfparams = [ { cpname = "buf"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SFor loop ] }
  in
  let buf = Array.make 4 (Cinterp.VI 0) in
  ignore
    (Cinterp.run_func { cfuncs = [ f ] } "fill" [ ("buf", Cinterp.VA buf) ]);
  Alcotest.(check bool) "squares" true
    (buf = [| Cinterp.VI 0; Cinterp.VI 1; Cinterp.VI 4; Cinterp.VI 9 |])

let test_interp_conditionals () =
  let f =
    { cfname = "absdiff";
      cfparams =
        [ { cpname = "a"; cpty = CInt; cpbitwidth = None };
          { cpname = "b"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody =
        [ SIf
            ( EBin (CGt, EVar "a", EVar "b"),
              [ SReturn (Some (EBin (CSub, EVar "a", EVar "b"))) ],
              [ SReturn (Some (EBin (CSub, EVar "b", EVar "a"))) ] ) ] }
  in
  let run a b =
    match
      Cinterp.run_func { cfuncs = [ f ] } "absdiff"
        [ ("a", Cinterp.VI a); ("b", Cinterp.VI b) ]
    with
    | Some (Cinterp.VI n) -> n
    | _ -> Alcotest.fail "int expected"
  in
  Alcotest.(check int) "7-3" 4 (run 7 3);
  Alcotest.(check int) "3-7" 4 (run 3 7)

let test_interp_math () =
  let f =
    { cfname = "m";
      cfparams = [ { cpname = "x"; cpty = CDouble; cpbitwidth = None } ];
      cfret = Some CDouble;
      cfbody =
        [ SReturn
            (Some (ECall ("sqrt", [ ECall ("fmax", [ EVar "x"; EInt 16 ]) ])))
        ] }
  in
  match Cinterp.run_func { cfuncs = [ f ] } "m" [ ("x", Cinterp.VF 4.0) ] with
  | Some (Cinterp.VF v) -> Alcotest.(check (float 1e-9)) "sqrt(max(4,16))" 4.0 v
  | _ -> Alcotest.fail "float expected"

let test_interp_user_call () =
  let callee =
    { cfname = "twice";
      cfparams = [ { cpname = "v"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody = [ SReturn (Some (EBin (CMul, EVar "v", EInt 2))) ] }
  in
  let caller =
    { cfname = "go";
      cfparams = [ { cpname = "x"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody = [ SReturn (Some (ECall ("twice", [ EBin (CAdd, EVar "x", EInt 1) ]))) ] }
  in
  match
    Cinterp.run_func { cfuncs = [ callee; caller ] } "go" [ ("x", Cinterp.VI 20) ]
  with
  | Some (Cinterp.VI 42) -> ()
  | _ -> Alcotest.fail "expected 42"

let test_interp_char_cast () =
  let f =
    { cfname = "c";
      cfparams = [ { cpname = "x"; cpty = CInt; cpbitwidth = None } ];
      cfret = Some CInt;
      cfbody = [ SReturn (Some (ECast (CChar, EVar "x"))) ] }
  in
  match Cinterp.run_func { cfuncs = [ f ] } "c" [ ("x", Cinterp.VI 300) ] with
  | Some (Cinterp.VI v) -> Alcotest.(check int) "masked" (300 land 0xff) v
  | _ -> Alcotest.fail "int expected"

(* ---------- printing ---------- *)

let test_pp_basic () =
  let s = to_string fact_prog in
  Alcotest.(check bool) "signature" true (contains s "int fact(int n)");
  Alcotest.(check bool) "loop" true (contains s "for (int i = 1; i < n + 1; i++)");
  Alcotest.(check bool) "return" true (contains s "return r;")

let test_pp_pragmas () =
  let loop =
    { (mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8) []) with
      lpragmas = [ Pipeline PipeOn; Parallel 4; Tile 2 ] }
  in
  let f =
    { cfname = "k"; cfparams = []; cfret = None; cfbody = [ SFor loop ] }
  in
  let s = Format.asprintf "%a" pp_func f in
  Alcotest.(check bool) "pipeline" true (contains s "#pragma ACCEL pipeline");
  Alcotest.(check bool) "parallel" true
    (contains s "#pragma ACCEL parallel factor=4");
  Alcotest.(check bool) "tile" true (contains s "#pragma ACCEL tile factor=2")

let test_pp_precedence_parens () =
  let e = EBin (CMul, EBin (CAdd, EVar "a", EVar "b"), EVar "c") in
  Alcotest.(check string) "parens" "(a + b) * c"
    (Format.asprintf "%a" pp_expr e);
  let e2 = EBin (CAdd, EVar "a", EBin (CMul, EVar "b", EVar "c")) in
  Alcotest.(check string) "no parens" "a + b * c"
    (Format.asprintf "%a" pp_expr e2)

(* ---------- helpers / structure ---------- *)

let test_const_int_of () =
  Alcotest.(check (option int)) "folds" (Some 65)
    (const_int_of (EBin (CAdd, EInt 64, EInt 1)));
  Alcotest.(check (option int)) "div" (Some 21)
    (const_int_of (EBin (CDiv, EInt 64, EInt 3)));
  Alcotest.(check (option int)) "var" None
    (const_int_of (EBin (CAdd, EVar "n", EInt 1)))

let test_ty_bits () =
  Alcotest.(check int) "char" 8 (ty_bits CChar);
  Alcotest.(check int) "double" 64 (ty_bits CDouble);
  Alcotest.(check int) "ptr elem" 32 (ty_bits (CPtr CInt));
  Alcotest.(check int) "arr elem" 32 (ty_bits (CArr (CFloat, 10)))

let nested_loops_func =
  (* for i in 0..4 { for j in 0..8 { acc = acc + a[i*8+j]; } } *)
  let inner =
    mk_loop ~var:"j" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign
          ( EVar "acc",
            EBin
              ( CAdd,
                EVar "acc",
                EIndex
                  ( EVar "a",
                    EBin (CAdd, EBin (CMul, EVar "i", EInt 8), EVar "j") ) ) )
      ]
  in
  let outer = mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 4) [ SFor inner ] in
  ( { cfname = "sum";
      cfparams = [ { cpname = "a"; cpty = CPtr CDouble; cpbitwidth = Some 64 } ];
      cfret = None;
      cfbody = [ SDecl (CDouble, "acc", Some (EDouble 0.0)); SFor outer ] },
    outer.lid,
    (match outer.lbody with [ SFor l ] -> l.lid | _ -> assert false) )

let test_map_loops () =
  let f, outer_id, inner_id = nested_loops_func in
  let seen = ref [] in
  let _ =
    map_loops
      (fun l ->
        seen := l.lid :: !seen;
        l)
      f.cfbody
  in
  Alcotest.(check bool) "visits both" true
    (List.mem outer_id !seen && List.mem inner_id !seen)

let test_iter_loops_ancestors () =
  let f, outer_id, inner_id = nested_loops_func in
  let anc = ref [] in
  iter_loops (fun ancestors l -> if l.lid = inner_id then anc := ancestors) f.cfbody;
  Alcotest.(check (list int)) "inner's ancestors" [ outer_id ] !anc

(* ---------- analysis ---------- *)

let test_analysis_trips_and_depths () =
  let f, outer_id, inner_id = nested_loops_func in
  let s = Canalysis.analyze f in
  Alcotest.(check int) "two loops" 2 (List.length s.Canalysis.loops);
  let outer = Option.get (Canalysis.find_loop s outer_id) in
  let inner = Option.get (Canalysis.find_loop s inner_id) in
  Alcotest.(check (option int)) "outer trip" (Some 4) outer.Canalysis.li_trip;
  Alcotest.(check (option int)) "inner trip" (Some 8) inner.Canalysis.li_trip;
  Alcotest.(check int) "outer depth" 0 outer.Canalysis.li_depth;
  Alcotest.(check int) "inner depth" 1 inner.Canalysis.li_depth;
  Alcotest.(check (list int)) "children" [ inner_id ] outer.Canalysis.li_children

let test_analysis_reduction_detected () =
  let f, _, inner_id = nested_loops_func in
  let s = Canalysis.analyze f in
  let inner = Option.get (Canalysis.find_loop s inner_id) in
  match inner.Canalysis.li_dep with
  | Canalysis.ScalarRec ("acc", _) -> ()
  | _ -> Alcotest.fail "accumulation not detected"

let test_analysis_op_counts () =
  let f, _, inner_id = nested_loops_func in
  let s = Canalysis.analyze f in
  let inner = Option.get (Canalysis.find_loop s inner_id) in
  let ops = inner.Canalysis.li_ops in
  Alcotest.(check int) "one fp add" 1 ops.Canalysis.fp_add;
  Alcotest.(check int) "index arithmetic" 2
    (ops.Canalysis.int_add + ops.Canalysis.int_mul);
  Alcotest.(check int) "one read of a" 1
    (Option.value ~default:0 (List.assoc_opt "a" ops.Canalysis.mem_reads))

let test_analysis_buffers () =
  let f, _, _ = nested_loops_func in
  let s = Canalysis.analyze f in
  match s.Canalysis.buffers with
  | [ ("a", CPtr CDouble, Some 64) ] -> ()
  | _ -> Alcotest.fail "buffer list"

let test_analysis_array_dependence () =
  (* m[i] = m[i-1] + 1 is loop-carried. *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 1) ~hi:(EInt 8)
      [ SAssign
          ( EIndex (EVar "m", EVar "i"),
            EBin (CAdd, EIndex (EVar "m", EBin (CSub, EVar "i", EInt 1)), EInt 1)
          ) ]
  in
  let f =
    { cfname = "scan";
      cfparams = [];
      cfret = None;
      cfbody = [ SDecl (CArr (CInt, 8), "m", None); SFor loop ] }
  in
  let s = Canalysis.analyze f in
  match (List.hd s.Canalysis.loops).Canalysis.li_dep with
  | Canalysis.ArrayRec "m" -> ()
  | _ -> Alcotest.fail "array recurrence not detected"

let test_analysis_no_dependence () =
  (* out[i] = in[i] * 2 is parallel. *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign
          ( EIndex (EVar "o", EVar "i"),
            EBin (CMul, EIndex (EVar "a", EVar "i"), EInt 2) ) ]
  in
  let f =
    { cfname = "dbl";
      cfparams =
        [ { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None };
          { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SFor loop ] }
  in
  let s = Canalysis.analyze f in
  match (List.hd s.Canalysis.loops).Canalysis.li_dep with
  | Canalysis.NoDep -> ()
  | _ -> Alcotest.fail "false dependence"

let test_analysis_local_arrays () =
  let f =
    { cfname = "l";
      cfparams = [];
      cfret = None;
      cfbody = [ SDecl (CArr (CInt, 100), "buf", None); SReturn None ] }
  in
  let s = Canalysis.analyze f in
  Alcotest.(check int) "bytes" 400 s.Canalysis.locals_bytes;
  match s.Canalysis.local_arrays with
  | [ ("buf", CInt, 100) ] -> ()
  | _ -> Alcotest.fail "local array list"

(* ---------- affine analysis ---------- *)

let test_affine_of () =
  (* i*8 + j + 3 *)
  let e =
    EBin (CAdd, EBin (CAdd, EBin (CMul, EVar "i", EInt 8), EVar "j"), EInt 3)
  in
  match Canalysis.affine_of e with
  | Some a ->
    Alcotest.(check int) "const" 3 a.Canalysis.aff_const;
    Alcotest.(check (option int)) "i coeff" (Some 8)
      (List.assoc_opt "i" a.Canalysis.aff_terms);
    Alcotest.(check (option int)) "j coeff" (Some 1)
      (List.assoc_opt "j" a.Canalysis.aff_terms)
  | None -> Alcotest.fail "expected affine"

let test_affine_rejects_nonaffine () =
  Alcotest.(check bool) "i*j is not affine" true
    (Canalysis.affine_of (EBin (CMul, EVar "i", EVar "j")) = None);
  Alcotest.(check bool) "a[i] is not affine" true
    (Canalysis.affine_of (EIndex (EVar "a", EVar "i")) = None)

let test_affine_diff_cancels () =
  let x = Option.get (Canalysis.affine_of (EBin (CAdd, EVar "i", EInt 5))) in
  let y = Option.get (Canalysis.affine_of (EBin (CAdd, EVar "i", EInt 3))) in
  let d = Canalysis.affine_diff x y in
  Alcotest.(check bool) "terms cancel" true (d.Canalysis.aff_terms = []);
  Alcotest.(check int) "distance 2" 2 d.Canalysis.aff_const

let test_affine_equal_modulo_order () =
  let x =
    Option.get (Canalysis.affine_of (EBin (CAdd, EVar "i", EVar "j")))
  in
  let y =
    Option.get (Canalysis.affine_of (EBin (CAdd, EVar "j", EVar "i")))
  in
  Alcotest.(check bool) "commutative" true (Canalysis.affine_equal x y)

let test_dependence_private_iteration () =
  (* o[i] = o[i] * 2: reads and writes the same moving cell — private
     per iteration, no carried dependence. *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign
          ( EIndex (EVar "o", EVar "i"),
            EBin (CMul, EIndex (EVar "o", EVar "i"), EInt 2) ) ]
  in
  let f =
    { cfname = "d";
      cfparams = [ { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SFor loop ] }
  in
  let s = Canalysis.analyze f in
  match (List.hd s.Canalysis.loops).Canalysis.li_dep with
  | Canalysis.NoDep -> ()
  | _ -> Alcotest.fail "in-place update flagged as carried"

let test_dependence_accumulator_cell () =
  (* o[0] = o[0] + a[i]: the same loop-invariant cell every iteration. *)
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 8)
      [ SAssign
          ( EIndex (EVar "o", EInt 0),
            EBin (CAdd, EIndex (EVar "o", EInt 0), EIndex (EVar "a", EVar "i"))
          ) ]
  in
  let f =
    { cfname = "d";
      cfparams =
        [ { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None };
          { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None } ];
      cfret = None;
      cfbody = [ SFor loop ] }
  in
  let s = Canalysis.analyze f in
  match (List.hd s.Canalysis.loops).Canalysis.li_dep with
  | Canalysis.ArrayRec "o" -> ()
  | _ -> Alcotest.fail "accumulator cell not detected"

(* property: affine_diff (x, x) is zero *)
let gen_affine_expr =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      oneof
        [ map (fun n -> EInt n) (int_range (-9) 9);
          oneofl [ EVar "i"; EVar "j"; EVar "k" ] ]
    else
      let sub = gen (depth - 1) in
      oneof
        [ map2 (fun a b -> EBin (CAdd, a, b)) sub sub;
          map2 (fun a b -> EBin (CSub, a, b)) sub sub;
          map2 (fun k a -> EBin (CMul, EInt k, a)) (int_range (-4) 4) sub;
          sub ]
  in
  gen 3

let prop_affine_self_diff_zero =
  QCheck.Test.make ~name:"affine x - x = 0" ~count:300
    (QCheck.make gen_affine_expr) (fun e ->
      match Canalysis.affine_of e with
      | Some a ->
        let d = Canalysis.affine_diff a a in
        d.Canalysis.aff_terms = [] && d.Canalysis.aff_const = 0
      | None -> QCheck.assume_fail ())

let prop_affine_matches_eval =
  (* Evaluate the expression and its affine form at random points. *)
  QCheck.Test.make ~name:"affine form evaluates like the expression"
    ~count:300
    QCheck.(
      pair (QCheck.make gen_affine_expr)
        (triple (int_range (-5) 5) (int_range (-5) 5) (int_range (-5) 5)))
    (fun (e, (vi, vj, vk)) ->
      match Canalysis.affine_of e with
      | None -> QCheck.assume_fail ()
      | Some a ->
        let env = [ ("i", vi); ("j", vj); ("k", vk) ] in
        let rec eval = function
          | EInt n -> n
          | EVar v -> List.assoc v env
          | EBin (CAdd, x, y) -> eval x + eval y
          | EBin (CSub, x, y) -> eval x - eval y
          | EBin (CMul, x, y) -> eval x * eval y
          | _ -> 0
        in
        let from_affine =
          a.Canalysis.aff_const
          + List.fold_left
              (fun acc (v, c) -> acc + (c * List.assoc v env))
              0 a.Canalysis.aff_terms
        in
        eval e = from_affine)

(* ---------- property: interpreter agrees with OCaml on arithmetic ---------- *)

let prop_interp_arith =
  QCheck.Test.make ~name:"C interpreter agrees on int arithmetic" ~count:300
    QCheck.(triple (int_range (-100) 100) (int_range (-100) 100)
              (int_range 0 3))
    (fun (a, b, opi) ->
      let op, eval =
        match opi with
        | 0 -> (CAdd, ( + ))
        | 1 -> (CSub, ( - ))
        | 2 -> (CMul, ( * ))
        | _ -> (CBXor, ( lxor ))
      in
      let f =
        { cfname = "f";
          cfparams =
            [ { cpname = "a"; cpty = CInt; cpbitwidth = None };
              { cpname = "b"; cpty = CInt; cpbitwidth = None } ];
          cfret = Some CInt;
          cfbody = [ SReturn (Some (EBin (op, EVar "a", EVar "b"))) ] }
      in
      match
        Cinterp.run_func { cfuncs = [ f ] } "f"
          [ ("a", Cinterp.VI a); ("b", Cinterp.VI b) ]
      with
      | Some (Cinterp.VI r) -> r = eval a b
      | _ -> false)

(* ---------- behaviour golden ---------- *)

module Fuzz = S2fa_fuzz.Fuzz
module Serde = S2fa_blaze.Serde
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Seed = S2fa_dse.Seed
module Rng = S2fa_util.Rng
module Pretty = S2fa_scala.Pretty

(* Every run below is pinned by golden/cinterp_runs.txt: the return
   value (floats by their bits) or the C_error message, and an MD5 of
   every buffer argument after the run, so a trap also pins how far the
   run got. A change to values, messages, operand order or fuel
   accounting shows up as a diff. [S2FA_UPDATE_GOLDEN=1] rewrites the
   file. *)

let rec add_cv b = function
  | Cinterp.VI n -> Printf.bprintf b "i%d" n
  | Cinterp.VL n -> Printf.bprintf b "l%Ld" n
  | Cinterp.VF f -> Printf.bprintf b "f%Lx" (Int64.bits_of_float f)
  | Cinterp.VA a ->
    Buffer.add_char b '[';
    Array.iter (fun x -> add_cv b x; Buffer.add_char b ',') a;
    Buffer.add_char b ']'

let md5 s = Digest.to_hex (Digest.string s)

let show_cv v =
  let b = Buffer.create 64 in
  add_cv b v;
  match v with
  | Cinterp.VA _ -> md5 (Buffer.contents b)
  | _ -> Buffer.contents b

(* One run of [go] over [args]: its result, then each buffer argument's
   name and contents. *)
let run_with go args =
  let result =
    match go args with
    | None -> "ret none"
    | Some v -> "ret " ^ show_cv v
    | exception Cinterp.C_error m -> "error " ^ m
    | exception e -> "exn " ^ Printexc.to_string e
  in
  ( result,
    List.filter_map
      (function
        | name, (Cinterp.VA _ as v) ->
          let b = Buffer.create 256 in
          add_cv b v;
          Some (name, Buffer.contents b)
        | _ -> None)
      args )

let run_case ?fuel prog entry args =
  run_with (Cinterp.run_func ?fuel prog entry) args

let outcome ?fuel prog entry args =
  let result, bufs = run_case ?fuel prog entry args in
  String.concat " "
    (result :: List.map (fun (name, s) -> name ^ "=" ^ md5 s) bufs)

(* A fuzz kernel at every fuel level, on one line: the fuels grouped by
   result, then one MD5 over every run's buffers in fuel order. *)
let fuel_levels = [ 1; 50; 300; 1_000; 5_000; 300_000 ]

let outcome_by_fuel prog entry make_args =
  let runs =
    List.map (fun fuel -> (fuel, run_case ~fuel prog entry (make_args ())))
      fuel_levels
  in
  let results = List.sort_uniq compare (List.map (fun (_, (r, _)) -> r) runs) in
  let groups =
    List.map
      (fun r ->
        Printf.sprintf "%s@%s" r
          (String.concat ","
             (List.filter_map
                (fun (fuel, (r', _)) ->
                  if r = r' then Some (string_of_int fuel) else None)
                runs)))
      results
  in
  let bufs =
    String.concat ";"
      (List.concat_map
         (fun (_, (_, bufs)) ->
           List.map (fun (name, s) -> name ^ "=" ^ s) bufs)
         runs)
  in
  String.concat " | " groups ^ " | buffers=" ^ md5 bufs

(* Hand-built programs: every message [Cinterp] raises, operand order,
   C99 scoping, recursion and the numeric corners. Each runs [f] in a
   program of its helper functions; [a] is a 4-element int buffer, [d]
   a 4-element double buffer and [x] the int 5. *)
let prm ?(ty = CInt) n = { cpname = n; cpty = ty; cpbitwidth = None }

let fn ?(ret = Some CInt) name params body =
  { cfname = name; cfparams = params; cfret = ret; cfbody = body }

let v n = EVar n
let i n = EInt n
let ( +: ) a b = EBin (CAdd, a, b)
let at a k = EIndex (EVar a, k)
let ret e = SReturn (Some e)

let hand_args () =
  [ ("x", Cinterp.VI 5);
    ("a", Cinterp.VA (Array.init 4 (fun k -> Cinterp.VI (k + 1))));
    ("d", Cinterp.VA (Array.init 4 (fun k -> Cinterp.VF (float_of_int k +. 0.5))))
  ]

let main_params = [ prm "x"; prm ~ty:(CPtr CInt) "a"; prm ~ty:(CPtr CDouble) "d" ]

let helpers =
  [ fn "g2" [ prm "p"; prm "q" ] [ ret (EBin (CSub, v "p", v "q")) ];
    fn "g3" [ prm "p"; prm "q"; prm "r" ] [ ret (v "p" +: v "q" +: v "r") ];
    fn ~ret:None "poke" [ prm ~ty:(CPtr CInt) "b" ]
      [ SAssign (EIndex (v "b", i 0), i 99); SReturn None ];
    fn ~ret:None "nothing" [] [];
    fn "dup" [ prm "p"; prm "p" ] [ ret (v "p") ];
    fn "fact" [ prm "n" ]
      [ SIf (EBin (CLe, v "n", i 1), [ ret (i 1) ], []);
        ret (EBin (CMul, v "n", ECall ("fact", [ EBin (CSub, v "n", i 1) ]))) ];
    fn "fib" [ prm "n" ]
      [ SIf (EBin (CLt, v "n", i 2), [ ret (v "n") ], []);
        ret
          (ECall ("fib", [ EBin (CSub, v "n", i 1) ])
          +: ECall ("fib", [ EBin (CSub, v "n", i 2) ])) ];
    (* A fresh frame per call: [loc] survives the recursive call. *)
    fn "keep" [ prm "n" ]
      [ SDecl (CInt, "loc", Some (v "n"));
        SIf (EBin (CGt, v "n", i 0),
          [ SExpr (ECall ("keep", [ EBin (CSub, v "n", i 1) ])) ], []);
        ret (v "loc") ];
    fn "g2" [ prm "p"; prm "q" ] [ ret (i 7) ] ]

let loop ?(vty = CInt) ?(decl = true) ?(step = 1) var lo hi body =
  SFor (mk_loop ~vty ~decl ~var ~lo ~hi ~step body)

let nan_ = EBin (CDiv, EDouble 0.0, EDouble 0.0)

let hand_cases =
  [ ("bool-array", [ SIf (v "a", [ ret (i 1) ], []); ret (i 0) ]);
    ("int-array", [ ret (at "a" (v "a")) ]);
    ("float-array", [ ret (ECall ("sqrt", [ v "a" ])) ]);
    ("float-bitand", [ ret (EBin (CBAnd, EDouble 1.5, EDouble 2.5)) ]);
    ("float-shift", [ ret (EBin (CShl, EDouble 1.5, i 2)) ]);
    ("div0-int", [ ret (EBin (CDiv, v "x", i 0)) ]);
    ("div0-long", [ ret (EBin (CDiv, ELong 7L, EBin (CSub, v "x", v "x"))) ]);
    ("mod0-int", [ ret (EBin (CRem, v "x", i 0)) ]);
    ("mod0-long", [ ret (EBin (CRem, v "x", ELong 0L)) ]);
    ("array-arith", [ ret (v "a" +: i 1) ]);
    ("array-arith-float", [ ret (v "a" +: EDouble 1.5) ]);
    ("array-arith-long", [ ret (ELong 1L +: v "a") ]);
    ("array-compare", [ ret (EBin (CLt, v "a", i 1)) ]);
    ("array-compare-float", [ ret (EBin (CEq, EDouble 1.0, v "d")) ]);
    ("array-compare-long", [ ret (EBin (CGe, ELong 1L, v "a")) ]);
    ("cast-array-long", [ ret (ECast (CLong, v "a")) ]);
    ("cast-array-int", [ ret (ECast (CInt, v "a")) ]);
    ("cast-array-bool", [ ret (ECast (CBool, v "d")) ]);
    ("cast-aggregate", [ ret (ECast (CArr (CInt, 2), i 1)) ]);
    ("cast-pointer", [ ret (ECast (CPtr CInt, at "a" (i 9))) ]);
    ("unknown-fn", [ ret (ECall ("foo", [ i 1; i 2 ])) ]);
    ("unknown-fn-args-first", [ ret (ECall ("foo", [ i 1; at "a" (i 9) ])) ]);
    ("math-arity", [ ret (ECall ("sqrt", [ EDouble 1.0; EDouble 2.0 ])) ]);
    ("math-array-arg", [ ret (ECall ("fmin", [ v "a"; EDouble 1.0 ])) ]);
    ("unbound-read", [ ret (v "y") ]);
    ("unbound-write", [ SAssign (v "y", i 1); ret (i 0) ]);
    ("unbound-write-value-first", [ SAssign (v "y", at "a" (i 9)) ]);
    ("unbound-counter", [ loop ~decl:false "k" (i 0) (i 3) []; ret (i 0) ]);
    ("unbound-counter-lo-first", [ loop ~decl:false "k" (at "a" (i 9)) (i 3) [] ]);
    ("neg-array", [ ret (EUn (CNeg, v "a")) ]);
    ("bnot-float", [ ret (EUn (CBNot, EDouble 1.5)) ]);
    ("bnot-array", [ ret (EUn (CBNot, v "a")) ]);
    ("not-array", [ ret (EUn (CNot, v "a")) ]);
    ("index-oob", [ ret (at "a" (i 4)) ]);
    ("index-negative", [ ret (at "a" (i (-1))) ]);
    ("index-non-array", [ ret (at "x" (i 0)) ]);
    ("store-oob", [ SAssign (at "a" (i 9), i 1) ]);
    ("store-negative", [ SAssign (at "d" (i (-2)), i 1) ]);
    ("store-non-array", [ SAssign (at "x" (i 0), i 1) ]);
    ("invalid-lvalue", [ SAssign (i 1, i 2) ]);
    ("invalid-lvalue-value-first", [ SAssign (v "x" +: i 1, at "a" (i 9)) ]);
    ("fuel-while", [ SWhile (i 1, []) ]);
    (* Operand order. *)
    ("bin-both-trap", [ ret (at "a" (i 100) +: at "a" (i 200)) ]);
    ("cmp-both-trap", [ ret (EBin (CLt, at "a" (i 100), at "a" (i 200))) ]);
    ("assign-both-trap", [ SAssign (at "a" (i 100), at "a" (i 200)) ]);
    ("assign-target-trap", [ SAssign (EIndex (at "a" (i 100), at "a" (i 200)), i 1) ]);
    ("index-both-trap", [ ret (EIndex (at "a" (i 100), at "a" (i 200))) ]);
    ("call-args-order", [ ret (ECall ("g2", [ at "a" (i 100); at "a" (i 200) ])) ]);
    ("math-args-order", [ ret (ECall ("fmin", [ at "a" (i 100); at "a" (i 200) ])) ]);
    ("and-short", [ ret (EBin (CAnd, i 0, at "a" (i 100))) ]);
    ("or-short", [ ret (EBin (COr, EDouble 0.5, at "a" (i 100))) ]);
    ("and-right-trap", [ ret (EBin (CAnd, i 1, at "a" (i 100))) ]);
    ("or-both", [ ret (EBin (COr, i 0, ELong 0L) +: EBin (CAnd, i 2, i 3)) ]);
    ("cond", [ ret (ECond (EBin (CGt, v "x", i 3), at "a" (i 0), at "a" (i 100))) ]);
    (* C99 scoping. *)
    ( "loop-redeclares-counter",
      [ SDecl (CInt, "k", Some (i 0));
        loop "i" (i 0) (i 3)
          [ SDecl (CInt, "i", Some (i 10 +: v "k"));
            SAssign (at "a" (v "k"), v "i");
            SAssign (v "k", v "k" +: i 1) ];
        ret (v "k") ] );
    ( "non-ldecl-exit-value",
      [ SDecl (CInt, "i", Some (i 100));
        loop ~decl:false ~step:3 "i" (i 0) (i 7)
          [ SAssign (at "a" (i 0), at "a" (i 0) +: v "i") ];
        ret (v "i") ] );
    ( "ldecl-restores-outer",
      [ SDecl (CInt, "i", Some (i 100));
        loop "i" (i 0) (i 3) [ SAssign (at "a" (v "i"), v "i") ];
        ret (v "i") ] );
    ( "ldecl-unbound-after",
      [ loop "i" (i 0) (i 3) []; ret (v "i") ] );
    ( "if-shadow-restores",
      [ SDecl (CInt, "y", Some (i 1));
        SIf (EBin (CGt, v "x", i 0),
          [ SDecl (CInt, "y", Some (i 2)); SAssign (at "a" (i 0), v "y") ],
          []);
        ret (v "y") ] );
    ( "if-decl-unbound-after",
      [ SIf (v "x", [ SDecl (CInt, "y", Some (i 2)) ], []); ret (v "y") ] );
    ( "decl-init-sees-outer",
      [ SDecl (CInt, "y", Some (i 5));
        SIf (i 1,
          [ SDecl (CInt, "y", Some (v "y" +: i 1)); SAssign (at "a" (i 0), v "y") ],
          []);
        ret (v "y") ] );
    ( "redeclare-in-block",
      [ SWhile (EBin (CLt, at "a" (i 3), i 7),
          [ SDecl (CInt, "y", Some (i 1));
            SDecl (CInt, "y", Some (v "y" +: i 1));
            SAssign (at "a" (i 3), at "a" (i 3) +: v "y") ]);
        ret (at "a" (i 3)) ] );
    ("param-shadowed", [ SDecl (CInt, "x", Some (EBin (CMul, v "x", i 2))); ret (v "x") ]);
    ( "read-before-decl-in-loop",
      [ SDecl (CInt, "y", Some (i 1));
        loop "i" (i 0) (i 3)
          [ SAssign (at "a" (v "i"), v "y");
            SDecl (CInt, "y", Some (i 50));
            SAssign (at "d" (v "i"), v "y") ];
        ret (v "y") ] );
    ( "local-array-fresh",
      [ SDecl (CInt, "n", Some (i 0));
        SWhile (EBin (CLt, v "n", i 3),
          [ SDecl (CArr (CInt, 2), "t", None);
            SAssign (at "t" (i 0), at "t" (i 0) +: i 1);
            SAssign (at "a" (v "n"), at "t" (i 0));
            SAssign (v "n", v "n" +: i 1) ]);
        ret (v "n") ] );
    ( "local-2d-array",
      [ SDecl (CArr (CArr (CInt, 2), 3), "m", None);
        SAssign (EIndex (at "m" (i 2), i 1), i 7);
        ret (EIndex (at "m" (i 2), i 1) +: EIndex (at "m" (i 0), i 0)) ] );
    ("local-2d-oob", [ SDecl (CArr (CArr (CInt, 2), 3), "m", None);
                       ret (EIndex (at "m" (i 1), i 2)) ]);
    ("decl-pointer-no-init", [ SDecl (CPtr CDouble, "p", None); ret (v "p") ]);
    ("decl-long-no-init", [ SDecl (CLong, "p", None); ret (v "p") ]);
    ("decl-no-cast", [ SDecl (CInt, "y", Some (EDouble 2.5)); ret (v "y") ]);
    ("store-no-cast", [ SAssign (at "a" (i 1), EDouble 2.5); ret (i 0) ]);
    ("store-array-into-array", [ SAssign (at "a" (i 1), v "d"); ret (i 0) ]);
    ( "counter-retyped-float",
      [ loop "i" (i 0) (i 5)
          [ SAssign (v "i", v "i" +: EDouble 0.5);
            SAssign (at "a" (i 0), at "a" (i 0) +: i 1) ];
        ret (at "a" (i 0)) ] );
    ( "counter-long",
      [ SDecl (CInt, "s", Some (i 0));
        loop ~vty:CLong "i" (i 0) (i 3) [ SAssign (v "s", v "s" +: v "i") ];
        ret (v "s") ] );
    ( "counter-long-non-ldecl",
      [ SDecl (CLong, "i", None);
        loop ~vty:CLong ~decl:false "i" (i 1) (i 4) [];
        ret (v "i") ] );
    ("counter-array", [ loop "i" (i 0) (i 3) [ SAssign (v "i", v "a") ] ]);
    ( "hi-reads-counter",
      [ SDecl (CInt, "s", Some (i 0));
        loop "i" (i 0) (EBin (CSub, i 10, v "i")) [ SAssign (v "s", v "s" +: i 1) ];
        ret (v "s") ] );
    ( "hi-reevaluated",
      [ SDecl (CInt, "h", Some (i 6));
        SDecl (CInt, "s", Some (i 0));
        loop "i" (i 0) (v "h")
          [ SAssign (v "h", EBin (CSub, v "h", i 1)); SAssign (v "s", v "s" +: i 1) ];
        ret (v "s") ] );
    ( "hi-traps-late",
      [ loop "i" (i 0) (at "a" (v "i")) [] ] );
    ( "lo-sees-outer",
      [ SDecl (CInt, "i", Some (i 2));
        loop "i" (v "i" +: i 1) (i 6) [ SAssign (at "a" (i 0), at "a" (i 0) +: v "i") ];
        ret (at "a" (i 0)) ] );
    ( "float-lo",
      [ SDecl (CInt, "s", Some (i 0));
        loop "i" (EDouble 1.7) (i 4) [ SAssign (v "s", v "s" +: v "i") ];
        ret (v "s") ] );
    ( "nested-shadow-non-ldecl",
      [ SDecl (CInt, "i", Some (i 0));
        SDecl (CInt, "s", Some (i 0));
        loop ~decl:false "i" (i 0) (i 3)
          [ loop "i" (i 5) (i 7) [ SAssign (v "s", v "s" +: v "i") ];
            SAssign (v "s", v "s" +: v "i") ];
        ret (EBin (CMul, v "s", i 100) +: v "i") ] );
    ( "return-from-nested-loop",
      [ loop "i" (i 0) (i 4)
          [ loop "j" (i 0) (i 4)
              [ SIf (EBin (CEq, EBin (CMul, v "i", v "j"), i 6),
                  [ ret (EBin (CMul, v "i", i 10) +: v "j") ], []) ] ];
        ret (i (-1)) ] );
    ("while-false", [ SWhile (i 0, [ SAssign (at "a" (i 9), i 1) ]); ret (i 3) ]);
    (* Functions. *)
    ("recursive-fact", [ ret (ECall ("fact", [ i 10 ])) ]);
    ("recursive-fib", [ ret (ECall ("fib", [ i 15 ])) ]);
    ("fresh-frame", [ ret (ECall ("keep", [ i 5 ])) ]);
    ("callee-void", [ ret (ECall ("poke", [ v "a" ]) +: ECall ("nothing", [])) ]);
    ("callee-statement", [ SExpr (ECall ("poke", [ v "a" ])); ret (at "a" (i 0)) ]);
    ("duplicate-params", [ ret (ECall ("dup", [ i 1; i 2 ])) ]);
    ("arity-too-many", [ ret (ECall ("g2", [ i 1; i 2; at "a" (i 100) ])) ]);
    ("arity-too-few", [ ret (ECall ("g2", [ at "a" (i 100) ])) ]);
    ("arity-pairwise", [ ret (ECall ("g3", [ at "a" (i 100); i 2 ])) ]);
    ("first-function-wins", [ ret (ECall ("g2", [ i 9; i 4 ])) ]);
    ("return-void", [ SReturn None; ret (i 1) ]);
    ("return-array", [ SAssign (at "a" (i 0), i 42); ret (v "a") ]);
    ("no-return", [ SAssign (at "a" (i 0), i 42) ]);
    ("empty", []);
    (* Numeric corners. *)
    ( "nan-compare",
      [ SDecl (CDouble, "z", Some nan_);
        ret
          (EBin (CMul, EBin (CLt, v "z", EDouble 1.0), i 1000)
          +: EBin (CMul, EBin (CEq, v "z", v "z"), i 100)
          +: EBin (CMul, EBin (CGt, v "z", EDouble 1.0), i 10)
          +: EBin (CNe, EDouble 1.0, v "z")) ] );
    ("nan-truthy", [ SIf (nan_, [ ret (i 1) ], [ ret (i 0) ]) ]);
    ("promote-long", [ ret (EBin (CMul, v "x" +: ELong 1L, i 3)) ]);
    ("promote-float", [ ret (EBin (CMul, v "x" +: ELong 1L, EDouble 2.5)) ]);
    ("promote-compare", [ ret (EBin (CLt, ELong 1L, i 2) +: EBin (CGt, i 2, ELong 1L)
                               +: EBin (CEq, i 1, EDouble 1.0)) ]);
    ("shift-long", [ ret (EBin (CShr, EBin (CShl, ELong 1L, i 40), i 3)) ]);
    ("shift-int", [ ret (EBin (CShr, EBin (CShl, v "x", i 4), i 1) +: EBin (CShr, i (-17), i 2)) ]);
    ("shift-wide", [ ret (EBin (CShl, v "x", i 70)) ]);
    ("bitwise", [ ret (EBin (CBXor, EBin (CBOr, EBin (CBAnd, v "x", i 6), i 8), i 3)) ]);
    ("bitwise-long", [ ret (EBin (CBXor, EBin (CBOr, EBin (CBAnd, ELong 12L, v "x"), i 8), ELong 3L)) ]);
    ("casts", [ ret (ECast (CChar, i 300) +: ECast (CChar, i (-1)) +: ECast (CBool, EDouble 2.5)
                     +: ECast (CInt, EDouble 3.9) +: ECast (CInt, ELong 7L)) ]);
    ("cast-long", [ ret (ECast (CLong, EDouble (-2.5)) +: ECast (CLong, i 3)) ]);
    ("cast-double", [ ret (ECast (CDouble, ELong 7L) +: ECast (CFloat, v "x")) ]);
    ("cast-char-of-float", [ ret (ECast (CChar, EDouble 300.7)) ]);
    ("unary", [ ret (EUn (CNeg, v "x") +: EUn (CNot, i 0) +: EUn (CNot, EDouble 2.5)
                     +: EUn (CBNot, v "x")) ]);
    ("unary-long", [ ret (EUn (CNeg, ELong 4L) +: EUn (CBNot, ELong 5L)) ]);
    ("unary-float", [ ret (EUn (CNeg, EDouble 2.5)) ]);
    ("literals", [ ret (EChar 'A' +: EBool true +: EBool false +: EFloat 0.25) ]);
    ( "math",
      [ ret
          (ECall ("sqrt", [ i 2 ]) +: ECall ("exp", [ EDouble 1.0 ])
          +: ECall ("log", [ EDouble 2.0 ])
          +: ECall ("floor", [ EDouble (-1.5) ]) +: ECall ("ceil", [ EDouble 1.2 ])
          +: ECall ("fabs", [ EDouble (-3.0) ]) +: ECall ("pow", [ i 2; EDouble 0.5 ])
          +: ECall ("fmin", [ i 3; EDouble 2.0 ]) +: ECall ("fmax", [ nan_; i 1 ])) ] );
    ("math-abs", [ ret (ECall ("abs", [ i (-3) ]) +: ECall ("labs", [ ELong (-4L) ])) ]);
    ("math-abs-float", [ ret (ECall ("abs", [ EDouble (-3.5) ]) +: ECall ("labs", [ i (-4) ])) ]);
    ("int-overflow", [ ret (EBin (CMul, v "x", i max_int)) ]);
    ("long-min-div", [ ret (EBin (CDiv, ELong Int64.min_int, ELong (-1L))) ]);
    ("int-min-rem", [ ret (EBin (CRem, i min_int, i (-1))) ]);
    ("rem-signs", [ ret (EBin (CRem, i (-7), i 3) +: EBin (CRem, EDouble 7.5, EDouble (-2.0))) ]);
    ("float-div0", [ ret (EBin (CDiv, EDouble 1.0, EDouble 0.0)) ]);
    ( "double-buffer",
      [ loop "k" (i 0) (i 4)
          [ SAssign (at "d" (v "k"), EBin (CMul, at "d" (v "k"), at "d" (EBin (CSub, i 3, v "k")))) ];
        ret (at "d" (i 2)) ] ) ]

(* One program per fuel level: the exact unit cost of statements, loop
   iterations, branches and calls. *)
let fuel_program =
  [ SDecl (CInt, "s", Some (i 0));
    SDecl (CInt, "n", Some (i 0));
    SWhile (EBin (CLt, v "n", i 2),
      [ loop "i" (i 0) (i 3)
          [ SIf (EBin (CGt, v "i", i 0),
              [ SAssign (v "s", v "s" +: v "i") ],
              [ SDecl (CInt, "t", Some (i 1)); SAssign (v "s", EBin (CSub, v "s", v "t")) ]) ];
        SAssign (v "n", v "n" +: i 1);
        SAssign (at "a" (v "n"), v "s") ]);
    ret (v "s" +: ECall ("fact", [ i 4 ])) ]

let hand_prog body = { cfuncs = fn "f" main_params body :: helpers }

let golden_hand () =
  let line label r = Printf.sprintf "hand %s: %s" label r in
  List.map
    (fun (label, body) ->
      let fuel = if label = "fuel-while" then Some 1000 else None in
      line label (outcome ?fuel (hand_prog body) "f" (hand_args ())))
    hand_cases
  @ [ line "no-function" (outcome (hand_prog []) "nope" (hand_args ()));
      line "missing-argument"
        (outcome (hand_prog []) "f" (List.filter (fun (n, _) -> n <> "a") (hand_args ())));
      line "extra-and-repeated-arguments"
        (outcome (hand_prog [ ret (v "x") ]) "f"
           (("x", Cinterp.VI 8) :: ("zz", Cinterp.VI 1) :: hand_args ()));
      line "duplicate-params-entry" (outcome (hand_prog []) "dup" [ ("p", Cinterp.VI 3) ]);
      line "user-shadows-math"
        (outcome
           { cfuncs =
               fn "f" main_params [ ret (ECall ("sqrt", [ i 4 ])) ]
               :: fn ~ret:(Some CDouble) "sqrt" [ prm "p" ] [ ret (EDouble 42.0) ]
               :: helpers }
           "f" (hand_args ())) ]
  @ List.init 42 (fun k ->
        line (Printf.sprintf "fuel %d" (k + 1))
          (outcome ~fuel:(k + 1) (hand_prog fuel_program) "f" (hand_args ())))
  @ List.map
      (fun (label, f) ->
        line label (match f () with v -> show_cv v | exception Cinterp.C_error m -> "error " ^ m))
      [ ("arith-long-compare-op", fun () -> Cinterp.arith CLt (Cinterp.VL 1L) (Cinterp.VL 2L));
        ("arith-int-compare-op", fun () -> Cinterp.arith CEq (Cinterp.VI 1) (Cinterp.VI 2));
        ("compare-arith-op", fun () -> Cinterp.compare_cv CAdd (Cinterp.VI 1) (Cinterp.VI 2)) ]

(* The eight workloads under three designs each, fed through [Serde] as
   [Blaze.map_accelerated] feeds them. *)
let golden_workloads () =
  List.concat_map
    (fun (w : W.t) ->
      let c = W.compile w in
      let designs =
        [ ("flat", c.S2fa.c_flat);
          ("served", S2fa.apply_design c (Seed.structured_seed c.S2fa.c_dspace));
          ("manual", S2fa.apply_design c (W.manual_design w c)) ]
      in
      List.concat_map
        (fun (dname, prog) ->
          List.concat_map
            (fun (n, fuels) ->
              List.map
                (fun fuel ->
                  let rng = Rng.create (1000 + n) in
                  let iface = c.S2fa.c_iface in
                  let tasks = w.W.w_gen rng n in
                  let inputs = Serde.serialize_inputs iface c.S2fa.c_input_ty tasks in
                  let outputs = Serde.alloc_outputs iface n in
                  let fields = Serde.field_buffers iface (w.W.w_fields rng) in
                  let args = (("N", Cinterp.VI n) :: inputs) @ outputs @ fields in
                  Printf.sprintf "workload %s %s n=%d fuel=%s: %s" w.W.w_name dname n
                    (match fuel with Some f -> string_of_int f | None -> "default")
                    (outcome ?fuel prog iface.S2fa_b2c.Decompile.if_kernel args))
                fuels)
            [ (1, [ None ]); (2, [ None ]); (16, [ None; Some 1000 ]) ])
        designs)
    W.all

(* Fuzz.gen_c_kernel kernels: N = 4, [in] and [out] of Fuzz.c_cap. *)
let golden_c_kernels () =
  List.init 300 (fun seed ->
      let prog = Fuzz.gen_c_kernel (Rng.create seed) in
      Printf.sprintf "ckernel %d: %s" seed
        (outcome_by_fuel prog "kernel" (fun () ->
             [ ("N", Cinterp.VI 4);
               ( "in",
                 Cinterp.VA
                   (Array.init Fuzz.c_cap (fun k -> Cinterp.VI ((k * 7) - 11))) );
               ("out", Cinterp.VA (Array.make Fuzz.c_cap (Cinterp.VI 0))) ])))

(* Fuzz.gen_kernel MiniScala kernels, flattened by Fuzz.compile_flat and
   run on 2 tasks with seeded values of each parameter's C type. *)
let golden_flat_kernels () =
  let tasks = 2 in
  let rec value rng = function
    | CBool -> Cinterp.VI (Rng.int rng 2)
    | CChar -> Cinterp.VI (Rng.int rng 256)
    | CInt -> Cinterp.VI (Rng.int_in rng (-9) 9)
    | CLong -> Cinterp.VL (Int64.of_int (Rng.int_in rng (-99) 99))
    | CFloat | CDouble -> Cinterp.VF (Rng.float rng 8.0 -. 4.0)
    | CArr (t, _) | CPtr t -> value rng t
  in
  List.init 600 (fun seed ->
      let ast, len = Fuzz.gen_kernel (Rng.create seed) in
      match Fuzz.compile_flat ~len (Pretty.to_string ast) with
      | Error m -> Printf.sprintf "flat %d: refused %s" seed m
      | Ok (prog, elems) ->
        let caps = Fuzz.scale_caps ~tasks elems in
        let params = (Option.get (find_cfunc prog "kernel")).cfparams in
        let make_args () =
          let rng = Rng.create (seed + 7919) in
          List.map
            (fun p ->
              ( p.cpname,
                match p.cpty with
                | _ when p.cpname = "N" -> Cinterp.VI tasks
                | CPtr t ->
                  let cap =
                    Option.value ~default:len (List.assoc_opt p.cpname caps)
                  in
                  Cinterp.VA (Array.init cap (fun _ -> value rng t))
                | t -> value rng t ))
            params
        in
        Printf.sprintf "flat %d: %s" seed (outcome_by_fuel prog "kernel" make_args))

(* A compiled program keeps nothing from one run to the next: one
   compile serves different inputs, interleaved with another program,
   after a trap and after running out of fuel, exactly as a fresh
   [run_func] does. *)
let test_compiled_runs_independent () =
  let prefix_sums =
    hand_prog
      [ SDecl (CInt, "s", Some (i 0));
        loop "k" (i 0) (v "x")
          [ SAssign (v "s", v "s" +: at "a" (v "k")); SAssign (at "a" (v "k"), v "s") ];
        ret (v "s" +: ECall ("fact", [ v "x" ])) ]
  in
  let other = Fuzz.gen_c_kernel (Rng.create 3) in
  let p1 = Cinterp.compile prefix_sums and p2 = Cinterp.compile other in
  let args x a () =
    [ ("x", Cinterp.VI x);
      ("a", Cinterp.VA (Array.map (fun n -> Cinterp.VI n) a));
      ("d", Cinterp.VA [||]) ]
  in
  let kernel_args () =
    [ ("N", Cinterp.VI 4);
      ("in", Cinterp.VA (Array.init Fuzz.c_cap (fun k -> Cinterp.VI (k * k))));
      ("out", Cinterp.VA (Array.make Fuzz.c_cap (Cinterp.VI 0))) ]
  in
  let steps =
    [ ("first batch", p1, prefix_sums, "f", args 3 [| 1; 2; 3; 4 |], None);
      ("other program", p2, other, "kernel", kernel_args, None);
      ("trap", p1, prefix_sums, "f", args 6 [| 5; 6; 7; 8 |], None);
      ("after the trap", p1, prefix_sums, "f", args 4 [| 9; 8; 7; 6 |], None);
      ("out of fuel", p1, prefix_sums, "f", args 4 [| 1; 1; 1; 1 |], Some 9);
      ("after running out", p1, prefix_sums, "f", args 2 [| 3; 0; 0; 3 |], None);
      ("other program again", p2, other, "kernel", kernel_args, Some 40);
      ("missing argument", p1, prefix_sums, "f", (fun () -> [ ("x", Cinterp.VI 1) ]), None);
      ("last batch", p1, prefix_sums, "f", args 4 [| 2; 4; 6; 8 |], None) ]
  in
  let results =
    List.map
      (fun (label, compiled, prog, entry, make_args, fuel) ->
        let fresh = run_with (Cinterp.run_func ?fuel prog entry) (make_args ()) in
        let reused = run_with (Cinterp.run ?fuel compiled entry) (make_args ()) in
        Alcotest.(check (pair string (list (pair string string)))) label fresh reused;
        (label, fst reused))
      steps
  in
  List.iter
    (fun (label, want) ->
      Alcotest.(check string) (label ^ " result") want (List.assoc label results))
    [ ("trap", "error index 4 out of bounds (len 4)");
      ("out of fuel", "error fuel exhausted");
      ("missing argument", "error f: missing argument a");
      ("after the trap", "ret i54") ]

(* dune runtest runs us in test/; a bare [dune exec] runs from the
   workspace root. *)
let golden_path =
  let dir =
    if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
    else "test/golden"
  in
  Filename.concat dir "cinterp_runs.txt"

let test_runs_golden () =
  let body =
    String.concat "\n"
      (golden_hand () @ golden_workloads () @ golden_c_kernels ()
     @ golden_flat_kernels ())
    ^ "\n"
  in
  if Sys.getenv_opt "S2FA_UPDATE_GOLDEN" = Some "1" then
    Out_channel.with_open_bin golden_path (fun oc ->
        Out_channel.output_string oc body)
  else begin
    (* Report the first differing line, not a megabyte of text. *)
    let want =
      String.split_on_char '\n'
        (In_channel.with_open_bin golden_path In_channel.input_all)
    and got = String.split_on_char '\n' body in
    let rec first k = function
      | w :: ws, g :: gs -> if w = g then first (k + 1) (ws, gs) else Some (k, w, g)
      | [], [] -> None
      | w :: _, [] -> Some (k, w, "<end of output>")
      | [], g :: _ -> Some (k, "<end of golden>", g)
    in
    match first 1 (want, got) with
    | None -> ()
    | Some (k, w, g) ->
      Alcotest.failf "%s:%d differs\n  golden: %s\n  actual: %s" golden_path k w g
  end

let () =
  Alcotest.run "hlsc"
    [ ( "interp",
        [ Alcotest.test_case "factorial" `Quick test_interp_fact;
          Alcotest.test_case "buffer mutation" `Quick test_interp_buffers_mutate;
          Alcotest.test_case "conditionals" `Quick test_interp_conditionals;
          Alcotest.test_case "math" `Quick test_interp_math;
          Alcotest.test_case "user calls" `Quick test_interp_user_call;
          Alcotest.test_case "char cast" `Quick test_interp_char_cast;
          Alcotest.test_case "golden runs pinned" `Quick test_runs_golden;
          Alcotest.test_case "compiled runs independent" `Quick
            test_compiled_runs_independent ] );
      ( "printer",
        [ Alcotest.test_case "basic" `Quick test_pp_basic;
          Alcotest.test_case "pragmas" `Quick test_pp_pragmas;
          Alcotest.test_case "precedence parens" `Quick
            test_pp_precedence_parens ] );
      ( "structure",
        [ Alcotest.test_case "const_int_of" `Quick test_const_int_of;
          Alcotest.test_case "ty_bits" `Quick test_ty_bits;
          Alcotest.test_case "map_loops" `Quick test_map_loops;
          Alcotest.test_case "iter_loops ancestors" `Quick
            test_iter_loops_ancestors ] );
      ( "analysis",
        [ Alcotest.test_case "trips and depths" `Quick
            test_analysis_trips_and_depths;
          Alcotest.test_case "reduction" `Quick test_analysis_reduction_detected;
          Alcotest.test_case "op counts" `Quick test_analysis_op_counts;
          Alcotest.test_case "buffers" `Quick test_analysis_buffers;
          Alcotest.test_case "array dependence" `Quick
            test_analysis_array_dependence;
          Alcotest.test_case "no false dependence" `Quick
            test_analysis_no_dependence;
          Alcotest.test_case "local arrays" `Quick test_analysis_local_arrays
        ] );
      ( "affine",
        [ Alcotest.test_case "affine_of" `Quick test_affine_of;
          Alcotest.test_case "rejects non-affine" `Quick
            test_affine_rejects_nonaffine;
          Alcotest.test_case "diff cancels" `Quick test_affine_diff_cancels;
          Alcotest.test_case "order-insensitive equality" `Quick
            test_affine_equal_modulo_order;
          Alcotest.test_case "iteration-private update" `Quick
            test_dependence_private_iteration;
          Alcotest.test_case "accumulator cell" `Quick
            test_dependence_accumulator_cell ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_interp_arith;
            prop_affine_self_diff_zero;
            prop_affine_matches_eval ] ) ]
