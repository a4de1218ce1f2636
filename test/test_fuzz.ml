module Fuzz = S2fa_fuzz.Fuzz
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Transform = S2fa_merlin.Transform
module Sym = S2fa_sym.Sym

(* ---------- corpus replay ---------- *)

(* Every committed reproducer must still produce the outcome its header
   claims: [pass] files are fixed bugs that must stay fixed, [reject]
   files pin the sound boundary of the supported subset. *)
let corpus_files () =
  (* cwd is the test directory under [dune runtest] but the project root
     under [dune exec test/test_fuzz.exe]. *)
  let dir =
    if Sys.file_exists "corpus" && Sys.is_directory "corpus" then "corpus"
    else Filename.concat "test" "corpus"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scala")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let test_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      match Fuzz.replay_file path with
      | Error m -> Alcotest.failf "%s" m
      | Ok (Fuzz.Expect_pass, Fuzz.Passed _) -> ()
      | Ok (Fuzz.Expect_reject, Fuzz.Rejected _) -> ()
      | Ok (Fuzz.Expect_fail, Fuzz.Failed _) -> ()
      | Ok (_, Fuzz.Failed f) ->
        Alcotest.failf "%s: unexpected failure [%s] %s" path f.Fuzz.f_oracle
          f.Fuzz.f_detail
      | Ok (_, Fuzz.Rejected why) ->
        Alcotest.failf "%s: unexpected rejection: %s" path why
      | Ok (_, Fuzz.Passed _) ->
        Alcotest.failf "%s: unexpectedly passed" path)
    files

(* A malformed reproducer is an error naming the file and its header
   line, never an exception or a silent default. *)
let test_corpus_rejects_bad_headers () =
  let path = Filename.temp_file "s2fa_corpus" ".scala" in
  let body = "class Fuzz() extends Accelerator[Int, Int] {}\n" in
  List.iter
    (fun (what, text, want) ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      match Fuzz.replay_file path with
      | Error m ->
        Alcotest.(check string) what (Printf.sprintf "%s:1: %s" path want) m
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | exception e ->
        Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [ ("empty file", "", "no \"// s2fa-fuzz\" header");
      ( "len=x",
        "// s2fa-fuzz expect=pass len=x input-seed=3 oracle=pipeline\n" ^ body,
        "len=x is not an integer" );
      ( "missing key",
        "// s2fa-fuzz expect=pass len=2 oracle=pipeline\n" ^ body,
        "missing input-seed= in header" );
      ( "expect=bogus",
        "// s2fa-fuzz expect=bogus len=2 input-seed=3 oracle=pipeline\n"
        ^ body,
        "expect=bogus is not pass, reject or fail" ) ];
  Sys.remove path;
  let dir = Filename.temp_dir "s2fa_corpus" ".d" in
  (match Fuzz.replay_file dir with
  | Error m ->
    Alcotest.(check bool) "a directory names the path" true
      (String.starts_with ~prefix:(dir ^ ": ") m)
  | Ok _ -> Alcotest.fail "a directory replayed");
  Sys.rmdir dir

(* ---------- corpus promotion: symbolic regression table ---------- *)

(* Every [expect=pass] reproducer — each one a fixed compiler bug — is
   additionally pushed through the symbolic verifier: its flat C must
   prove equal to itself, and every legal per-loop tile/unroll of it
   must prove equal to the original. A corpus file whose bug regresses
   shows up here as a refutation with a concrete witness. *)
let corpus_header path =
  let ic = open_in path in
  let header = input_line ic in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  (header, Buffer.contents buf)

let corpus_len header =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = "len" ->
        int_of_string_opt
          (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' header)

let test_corpus_symbolic () =
  let tasks = 2 in
  let bindings = [ ("N", Cinterp.VI tasks) ] in
  List.iter
    (fun path ->
      let header, source = corpus_header path in
      let is_pass =
        let rec has i =
          i + 11 <= String.length header
          && (String.sub header i 11 = "expect=pass" || has (i + 1))
        in
        has 0
      in
      if is_pass then begin
        let len = Option.value ~default:2 (corpus_len header) in
        match Fuzz.compile_flat ~len source with
        | Error m -> Alcotest.failf "%s: does not compile flat: %s" path m
        | Ok (flat, elems) ->
          let caps = Fuzz.scale_caps ~tasks elems in
          let name = Filename.basename path in
          (match Sym.equiv ~caps ~bindings flat flat "kernel" with
          | Sym.Proved _ -> ()
          | v ->
            Alcotest.failf "%s: identity not proved: %a" name Sym.pp_verdict
              v);
          let lids = ref [] in
          List.iter
            (fun (f : Csyntax.cfunc) ->
              Csyntax.iter_loops
                (fun _ l ->
                  if l.Csyntax.lstep = 1 then lids := l.Csyntax.lid :: !lids)
                f.Csyntax.cfbody)
            flat.Csyntax.cfuncs;
          List.iter
            (fun lid ->
              List.iter
                (fun (kind, mk) ->
                  match mk () with
                  | exception Transform.Transform_error _ -> ()
                  | p2 -> (
                    match Sym.equiv ~caps ~bindings flat p2 "kernel" with
                    | Sym.Proved _ -> ()
                    | Sym.Refuted cx ->
                      Alcotest.failf "%s: %s@L%d refuted: %s" name kind lid
                        cx.Sym.cx_detail
                    | Sym.Unknown _ ->
                      (* A corpus kernel may sit outside the evaluator's
                         bounded fragment (e.g. a symbolic while); that
                         is a budget limit, not a regression. *)
                      ()))
                [ ( "tile2",
                    fun () ->
                      Transform.apply
                        { Transform.cfg_loops =
                            [ ( lid,
                                { Transform.lc_tile = 2;
                                  lc_parallel = 1;
                                  lc_pipeline = Csyntax.PipeOff } ) ];
                          cfg_bitwidths = [] }
                        flat );
                  ( "unroll2",
                    fun () ->
                      Transform.real_unroll ~factor:2 ~loop_id:lid flat ) ])
            !lids
      end)
    (corpus_files ())

(* ---------- campaigns ---------- *)

let test_campaign_deterministic () =
  let run () = Fuzz.run_campaign ~shrink:false ~seed:11 ~count:8 () in
  let a = run () and b = run () in
  Alcotest.(check int) "passed" a.Fuzz.st_passed b.Fuzz.st_passed;
  Alcotest.(check int) "rejected" a.Fuzz.st_rejected b.Fuzz.st_rejected;
  Alcotest.(check int) "chain skips" a.Fuzz.st_chain_skips
    b.Fuzz.st_chain_skips;
  Alcotest.(check int) "c passed" a.Fuzz.st_c_passed b.Fuzz.st_c_passed;
  Alcotest.(check int) "failures"
    (List.length a.Fuzz.st_failures)
    (List.length b.Fuzz.st_failures)

let test_campaign_smoke () =
  let st = Fuzz.run_campaign ~shrink:false ~seed:5 ~count:25 () in
  Alcotest.(check int) "total" 25 st.Fuzz.st_total;
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.failf "unexpected failure [%s] %s\n%s" f.Fuzz.f_oracle
        f.Fuzz.f_detail f.Fuzz.f_source)
    st.Fuzz.st_failures

let test_coverage_campaign_deterministic () =
  let run () =
    Fuzz.run_campaign ~shrink:false ~coverage:true ~seed:11 ~count:10 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "cov features" a.Fuzz.st_cov_features
    b.Fuzz.st_cov_features;
  Alcotest.(check int) "cov contributors" a.Fuzz.st_cov_new b.Fuzz.st_cov_new;
  Alcotest.(check int) "passed" a.Fuzz.st_passed b.Fuzz.st_passed;
  Alcotest.(check int) "failures"
    (List.length a.Fuzz.st_failures)
    (List.length b.Fuzz.st_failures)

(* The coverage signal must actually accumulate, and guided mode must
   discover at least as many distinct failure signatures as random mode
   on the same seeds (both are 0 on a healthy pipeline — the comparison
   is the regression guard for when a bug is introduced). *)
let test_coverage_vs_random () =
  let random = Fuzz.run_campaign ~shrink:false ~seed:23 ~count:30 () in
  let guided =
    Fuzz.run_campaign ~shrink:false ~coverage:true ~seed:23 ~count:30 ()
  in
  Alcotest.(check int) "random mode records no coverage" 0
    random.Fuzz.st_cov_features;
  Alcotest.(check bool) "guided mode accumulates features" true
    (guided.Fuzz.st_cov_features > 0);
  Alcotest.(check bool) "guided finds >= distinct failure signatures" true
    (Fuzz.distinct_failures guided >= Fuzz.distinct_failures random)

(* ---------- transform regressions on hand-built C ---------- *)

let out_param =
  { Csyntax.cpname = "out"; cpty = Csyntax.CPtr Csyntax.CInt; cpbitwidth = None }

let mk_kernel body =
  { Csyntax.cfuncs =
      [ { Csyntax.cfname = "kernel";
          cfparams = [ out_param ];
          cfret = None;
          cfbody = body } ] }

let run_kernel prog =
  let out = Array.make 4 (Cinterp.VI 0) in
  ignore
    (Cinterp.run_func prog "kernel" [ ("out", Cinterp.VA out) ]);
  Array.map (function Cinterp.VI n -> n | _ -> Alcotest.fail "VI") out

let out0 = Csyntax.EIndex (Csyntax.EVar "out", Csyntax.EInt 0)

(* for (int i = 0; i < 4; i++) { int i = 2; out[0] = out[0] + i; }
   The body's redeclaration shadows the counter: every iteration adds 2.
   Blind substitution used to rewrite the shadowed reads as well. *)
let shadow_loop () =
  Csyntax.mk_loop ~var:"i" ~lo:(Csyntax.EInt 0) ~hi:(Csyntax.EInt 4)
    [ Csyntax.SDecl (Csyntax.CInt, "i", Some (Csyntax.EInt 2));
      Csyntax.SAssign (out0, Csyntax.EBin (Csyntax.CAdd, out0, Csyntax.EVar "i"))
    ]

let test_unroll_shadowed_decl () =
  let l = shadow_loop () in
  let prog = mk_kernel [ Csyntax.SFor l ] in
  Alcotest.(check int) "original" 8 (run_kernel prog).(0);
  let prog' = Transform.real_unroll ~factor:2 ~loop_id:l.Csyntax.lid prog in
  Alcotest.(check int) "unrolled by 2" 8 (run_kernel prog').(0)

let expect_transform_error f =
  try
    ignore (f ());
    Alcotest.fail "expected Transform_error"
  with Transform.Transform_error _ -> ()

let test_induction_write_refused () =
  (* for (int i = 0; i < 4; i++) { i = 5; } *)
  let l =
    Csyntax.mk_loop ~var:"i" ~lo:(Csyntax.EInt 0) ~hi:(Csyntax.EInt 4)
      [ Csyntax.SAssign (Csyntax.EVar "i", Csyntax.EInt 5) ]
  in
  let prog = mk_kernel [ Csyntax.SFor l ] in
  expect_transform_error (fun () ->
      Transform.real_unroll ~factor:2 ~loop_id:l.Csyntax.lid prog);
  expect_transform_error (fun () ->
      Transform.apply
        { Transform.cfg_loops =
            [ ( l.Csyntax.lid,
                { Transform.lc_tile = 2;
                  lc_parallel = 1;
                  lc_pipeline = Csyntax.PipeOff } ) ];
          cfg_bitwidths = [] }
        prog)

let test_outer_counter_refused () =
  (* int w; for (w = 0; w < 3; w++) {} out[0] = w;
     The counter's exit value is observable, so both tiling and
     unrolling must refuse, and execution must leave w = 3. *)
  let l =
    Csyntax.mk_loop ~decl:false ~var:"w" ~lo:(Csyntax.EInt 0)
      ~hi:(Csyntax.EInt 3) []
  in
  let prog =
    mk_kernel
      [ Csyntax.SDecl (Csyntax.CInt, "w", None);
        Csyntax.SFor l;
        Csyntax.SAssign (out0, Csyntax.EVar "w") ]
  in
  Alcotest.(check int) "exit value observable" 3 (run_kernel prog).(0);
  let pp = Csyntax.to_string prog in
  Alcotest.(check bool) "header only assigns" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains pp "for (w = 0");
  expect_transform_error (fun () ->
      Transform.real_unroll ~factor:2 ~loop_id:l.Csyntax.lid prog);
  expect_transform_error (fun () ->
      Transform.apply
        { Transform.cfg_loops =
            [ ( l.Csyntax.lid,
                { Transform.lc_tile = 2;
                  lc_parallel = 1;
                  lc_pipeline = Csyntax.PipeOff } ) ];
          cfg_bitwidths = [] }
        prog)

let test_for_scoping_restores_shadowed () =
  (* int t = 5; for (int t = 0; t < 3; t++) { out[1] = t; } out[0] = t;
     C99 scopes the counter to the loop: the outer t survives. The flat
     interpreter used to leak the counter, which made legal transforms
     look unsound. *)
  let l =
    Csyntax.mk_loop ~var:"t" ~lo:(Csyntax.EInt 0) ~hi:(Csyntax.EInt 3)
      [ Csyntax.SAssign
          ( Csyntax.EIndex (Csyntax.EVar "out", Csyntax.EInt 1),
            Csyntax.EVar "t" ) ]
  in
  let prog =
    mk_kernel
      [ Csyntax.SDecl (Csyntax.CInt, "t", Some (Csyntax.EInt 5));
        Csyntax.SFor l;
        Csyntax.SAssign (out0, Csyntax.EVar "t") ]
  in
  let out = run_kernel prog in
  Alcotest.(check int) "outer t restored" 5 out.(0);
  Alcotest.(check int) "loop saw its own t" 2 out.(1)

let test_tile_keeps_long_counter () =
  let l =
    Csyntax.mk_loop ~vty:Csyntax.CLong ~var:"i" ~lo:(Csyntax.EInt 0)
      ~hi:(Csyntax.EInt 8) []
  in
  let prog = mk_kernel [ Csyntax.SFor l ] in
  let prog' =
    Transform.apply
      { Transform.cfg_loops =
          [ ( l.Csyntax.lid,
              { Transform.lc_tile = 2;
                lc_parallel = 1;
                lc_pipeline = Csyntax.PipeOff } ) ];
        cfg_bitwidths = [] }
      prog
  in
  let pp = Csyntax.to_string prog' in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "tiled counter stays long long" true
    (contains pp "long long i")

let () =
  Alcotest.run "fuzz"
    [ ( "corpus",
        [ Alcotest.test_case "replay" `Quick test_corpus_replay;
          Alcotest.test_case "replay rejects bad headers" `Quick
            test_corpus_rejects_bad_headers;
          Alcotest.test_case "symbolic regression table" `Quick
            test_corpus_symbolic ] );
      ( "campaign",
        [ Alcotest.test_case "deterministic" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "smoke (25 kernels)" `Slow test_campaign_smoke;
          Alcotest.test_case "coverage deterministic" `Quick
            test_coverage_campaign_deterministic;
          Alcotest.test_case "coverage vs random" `Slow
            test_coverage_vs_random ] );
      ( "transform",
        [ Alcotest.test_case "unroll keeps shadowed decl" `Quick
            test_unroll_shadowed_decl;
          Alcotest.test_case "induction write refused" `Quick
            test_induction_write_refused;
          Alcotest.test_case "outer counter refused" `Quick
            test_outer_counter_refused;
          Alcotest.test_case "for-scope restores shadowed" `Quick
            test_for_scoping_restores_shadowed;
          Alcotest.test_case "tile keeps long counter" `Quick
            test_tile_keeps_long_counter ] ) ]
