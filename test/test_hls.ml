(* HLS estimator tests: qualitative responses to design factors. *)
module Csyntax = S2fa_hlsc.Csyntax
module E = S2fa_hls.Estimate
module Device = S2fa_hls.Device
module T = S2fa_merlin.Transform
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Dspace = S2fa_dse.Dspace
module Seed = S2fa_dse.Seed

let sw = Option.get (W.find "S-W")
let lr = Option.get (W.find "LR")

let compiled = lazy (W.compile sw)
let compiled_lr = lazy (W.compile lr)

let est c cfg = S2fa.estimate ~tasks:1024 c cfg

let test_area_seed_feasible () =
  let c = Lazy.force compiled in
  let r = est c (Seed.area_seed c.S2fa.c_dspace) in
  Alcotest.(check bool) "feasible" true r.E.r_feasible;
  Alcotest.(check bool) "small" true (r.E.r_lut_pct < 0.2)

let test_perf_seed_infeasible_for_sw () =
  (* Pipeline everything with parallel factor 32: blows the device, as
     the paper anticipates for complex kernels. *)
  let c = Lazy.force compiled in
  let r = est c (Seed.performance_seed c.S2fa.c_dspace) in
  Alcotest.(check bool) "infeasible" false r.E.r_feasible

let test_unroll_reduces_cycles () =
  let c = Lazy.force compiled in
  let ds = c.S2fa.c_dspace in
  let base = Seed.area_seed ds in
  let inner = List.hd ds.Dspace.ds_inner_ids in
  let with_par p =
    S2fa_tuner.Space.set base (Dspace.par_name inner) (S2fa_tuner.Space.VInt p)
  in
  let r1 = est c (with_par 1) in
  let r8 = est c (with_par 8) in
  Alcotest.(check bool) "8x unroll is faster" true
    (r8.E.r_cycles < r1.E.r_cycles);
  Alcotest.(check bool) "8x unroll uses more area" true
    (r8.E.r_lut_pct > r1.E.r_lut_pct || r8.E.r_dsp_pct > r1.E.r_dsp_pct)

let test_pipeline_reduces_cycles () =
  let c = Lazy.force compiled in
  let ds = c.S2fa.c_dspace in
  let base = Seed.area_seed ds in
  let inner = List.hd ds.Dspace.ds_inner_ids in
  let piped =
    S2fa_tuner.Space.set base (Dspace.pipe_name inner)
      (S2fa_tuner.Space.VStr "on")
  in
  let r_off = est c base in
  let r_on = est c piped in
  Alcotest.(check bool) "pipelining helps" true
    (r_on.E.r_cycles < r_off.E.r_cycles)

let test_lr_recurrence_ii () =
  (* The LR dot-product loop carries a floating accumulation: pipelining
     it cannot reach II 1 (the paper reports II 13). *)
  let c = Lazy.force compiled_lr in
  let ds = c.S2fa.c_dspace in
  let base = Seed.area_seed ds in
  let cfg =
    List.fold_left
      (fun acc id ->
        S2fa_tuner.Space.set acc (Dspace.pipe_name id)
          (S2fa_tuner.Space.VStr "on"))
      base ds.Dspace.ds_loop_ids
  in
  let r = est c cfg in
  Alcotest.(check (float 0.01)) "II = 13" 13.0 r.E.r_ii

let test_frequency_bounds () =
  let c = Lazy.force compiled in
  let ds = c.S2fa.c_dspace in
  List.iter
    (fun cfg ->
      let r = est c cfg in
      Alcotest.(check bool) "100 <= f <= 250" true
        (r.E.r_freq_mhz >= 100.0 && r.E.r_freq_mhz <= 250.0))
    [ Seed.area_seed ds; Seed.structured_seed ds; Seed.performance_seed ds ]

let test_eval_minutes_bounds () =
  let c = Lazy.force compiled in
  let ds = c.S2fa.c_dspace in
  List.iter
    (fun cfg ->
      let r = est c cfg in
      Alcotest.(check bool) "3..20 minutes" true
        (r.E.r_eval_minutes >= 3.0 && r.E.r_eval_minutes <= 20.0))
    [ Seed.area_seed ds; Seed.structured_seed ds ]

let test_bitwidth_affects_transfer () =
  let c = Lazy.force compiled in
  let ds = c.S2fa.c_dspace in
  let base = Seed.area_seed ds in
  let wide =
    List.fold_left
      (fun acc b ->
        S2fa_tuner.Space.set acc (Dspace.bw_name b) (S2fa_tuner.Space.VInt 512))
      base ds.Dspace.ds_buffers
  in
  let r_narrow = est c base in
  let r_wide = est c wide in
  Alcotest.(check bool) "wider interface transfers faster" true
    (r_wide.E.r_xfer_seconds < r_narrow.E.r_xfer_seconds)

let test_more_tasks_more_time () =
  let c = Lazy.force compiled in
  let cfg = Seed.area_seed c.S2fa.c_dspace in
  let r1 = S2fa.estimate ~tasks:512 c cfg in
  let r4 = S2fa.estimate ~tasks:2048 c cfg in
  Alcotest.(check bool) "time scales with tasks" true
    (r4.E.r_seconds > r1.E.r_seconds *. 2.0)

let test_utilization_consistency () =
  let c = Lazy.force compiled in
  let r = est c (Seed.area_seed c.S2fa.c_dspace) in
  List.iter
    (fun (n, v) ->
      Alcotest.(check bool) (n ^ " in [0,1.5]") true (v >= 0.0 && v < 1.5))
    [ ("lut", r.E.r_lut_pct); ("ff", r.E.r_ff_pct); ("bram", r.E.r_bram_pct);
      ("dsp", r.E.r_dsp_pct) ]

let test_device_model () =
  Alcotest.(check string) "device name" "xcvu9p (EC2 F1)" Device.vu9p.Device.name;
  Alcotest.(check bool) "usable cap" true
    (Device.vu9p.Device.usable_frac = 0.75);
  Alcotest.(check bool) "div slower than add" true
    (Device.int_div.Device.lat > Device.int_add.Device.lat);
  Alcotest.(check bool) "exp uses DSPs" true
    ((Device.math_op "exp").Device.dsp > 0.0);
  (* Serving: loading a different bitstream must cost real virtual
     time, and the bigger part takes longer to configure. *)
  Alcotest.(check bool) "reconfig costs time" true
    (Device.vu9p.Device.reconfig_minutes > 0.0);
  Alcotest.(check bool) "vu13p reconfig slower" true
    (Device.vu13p.Device.reconfig_minutes >= Device.vu9p.Device.reconfig_minutes)

(* Every genuine estimator report passes the sanity checker the fault
   injector's Transient path relies on (corrupted reports must be the
   only thing it ever rejects). *)
let prop_reports_pass_sanity_checker =
  QCheck.Test.make ~name:"genuine reports pass check_report" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let c =
        if seed mod 2 = 0 then Lazy.force compiled else Lazy.force compiled_lr
      in
      let rng = S2fa_util.Rng.create seed in
      let cfg =
        S2fa_tuner.Space.random_cfg rng c.S2fa.c_dspace.Dspace.ds_space
      in
      let r = est c cfg in
      E.report_ok r
      && (match E.check_report r with Ok () -> true | Error _ -> false))

let test_check_report_rejects_corruption () =
  let c = Lazy.force compiled in
  let good = est c (Seed.area_seed c.S2fa.c_dspace) in
  List.iter
    (fun (what, bad) ->
      match E.check_report bad with
      | Ok () -> Alcotest.failf "%s accepted" what
      | Error _ -> ())
    [ ("NaN cycles", { good with E.r_cycles = Float.nan });
      ("negative cycles", { good with E.r_cycles = -1.0 });
      ("infinite cycles", { good with E.r_cycles = Float.infinity });
      ("II below 1", { good with E.r_ii = 0.0 });
      ("zero frequency", { good with E.r_freq_mhz = 0.0 });
      ("negative seconds", { good with E.r_seconds = -0.5 });
      ("zero eval minutes", { good with E.r_eval_minutes = 0.0 });
      ("negative utilization", { good with E.r_lut_pct = -0.1 });
      ( "feasible past 100% LUT",
        { good with E.r_lut_pct = 1.5; r_feasible = true } ) ]

(* property: estimates are deterministic *)
let prop_estimate_deterministic =
  QCheck.Test.make ~name:"estimate is deterministic" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let c = Lazy.force compiled in
      let rng = S2fa_util.Rng.create seed in
      let cfg =
        S2fa_tuner.Space.random_cfg rng c.S2fa.c_dspace.Dspace.ds_space
      in
      let a = est c cfg and b = est c cfg in
      a = b)

(* ---------- design summaries against rewrite-and-analyse ---------- *)

module Canalysis = S2fa_hlsc.Canalysis
module Space = S2fa_tuner.Space
module Fuzz = S2fa_fuzz.Fuzz
module Rng = S2fa_util.Rng
open Csyntax

(* Every float of a report by its bits, and feasibility. *)
let report_bits (r : E.report) =
  ( List.map Int64.bits_of_float
      [ r.E.r_cycles; r.E.r_ii; r.E.r_freq_mhz; r.E.r_seconds;
        r.E.r_compute_seconds; r.E.r_xfer_seconds; r.E.r_lut_pct;
        r.E.r_ff_pct; r.E.r_bram_pct; r.E.r_dsp_pct; r.E.r_eval_minutes ],
    r.E.r_feasible )

(* [f ()], or the Transform_error it raised, and how many loop ids it
   drew. *)
let drawing f =
  let before = fresh_loop_id () in
  let r = try Ok (f ()) with T.Transform_error m -> Error m in
  (r, fresh_loop_id () - before - 1)

(* A summary with every loop id replaced by its loop's position, and
   the bodies of the loops dropped: [Transform.summarize] promises the
   rest equal to the analysis of the rewritten program, whose inner
   loops drew other ids. *)
let shape (s : Canalysis.summary) =
  let pos = List.mapi (fun k (li : Canalysis.loop_info) ->
      (li.Canalysis.li_loop.lid, k)) s.Canalysis.loops in
  let at id = List.assoc id pos in
  { s with
    Canalysis.loops =
      List.map
        (fun (li : Canalysis.loop_info) ->
          { li with
            Canalysis.li_loop =
              { li.Canalysis.li_loop with
                lid = at li.Canalysis.li_loop.lid;
                lbody = [] };
            li_ancestors = List.map at li.Canalysis.li_ancestors;
            li_children = List.map at li.Canalysis.li_children })
        s.Canalysis.loops }

(* The design's summary and report from [a] against the analysis and
   estimate of [Transform.apply cfg prog]: the same summaries, the same
   report bits or the same Transform_error, the same ids drawn. *)
let derived_agrees ?(tasks = 4096) ~buffer_elems a prog cfg =
  let derived, drawn = drawing (fun () -> T.summarize cfg a) in
  let applied, drawn' = drawing (fun () -> T.apply cfg prog) in
  drawn = drawn'
  &&
  match (derived, applied) with
  | Ok d, Ok p ->
    let analysed =
      List.map (fun f -> (f.cfname, Canalysis.analyze f)) p.cfuncs
    in
    List.map (fun (n, s) -> (n, shape s)) d
    = List.map (fun (n, s) -> (n, shape s)) analysed
    && report_bits (E.model d ~tasks ~buffer_elems)
       = report_bits (E.estimate p ~tasks ~buffer_elems)
  | Error m, Error m' -> String.equal m m'
  | _ -> false

let workloads = lazy (List.map (fun w -> (w, W.compile w)) W.all)

(* [S2fa.estimate] against the estimate of [S2fa.apply_design], and the
   summary behind it against the rewritten program's analysis. *)
let s2fa_agrees c cfg =
  let r, drawn = drawing (fun () -> S2fa.estimate c cfg) in
  let r', drawn' =
    drawing (fun () ->
        E.estimate (S2fa.apply_design c cfg) ~tasks:4096
          ~buffer_elems:c.S2fa.c_buffer_elems)
  in
  drawn = drawn'
  && Result.map report_bits r = Result.map report_bits r'
  && derived_agrees ~buffer_elems:c.S2fa.c_buffer_elems
       (Option.get (Lazy.force c.S2fa.c_analysis))
       c.S2fa.c_flat
       (Dspace.to_merlin c.S2fa.c_dspace cfg)

let test_workloads_derive () =
  List.iter
    (fun ((w : W.t), c) ->
      let name = w.W.w_name in
      Alcotest.(check bool) (name ^ ": analysed") true
        (Option.is_some (Lazy.force c.S2fa.c_analysis));
      let ds = c.S2fa.c_dspace in
      List.iter
        (fun (tag, cfg) ->
          Alcotest.(check bool) (name ^ ": " ^ tag) true (s2fa_agrees c cfg))
        [ ("performance seed", Seed.performance_seed ds);
          ("area seed", Seed.area_seed ds);
          ("structured seed", Seed.structured_seed ds);
          ("structured light seed", Seed.structured_light_seed ds);
          ("manual design", W.manual_design w c) ])
    (Lazy.force workloads)

let prop_workloads_derive =
  QCheck.Test.make ~name:"workload designs: summary = rewrite + analyse"
    ~count:400
    QCheck.(pair (int_range 0 7) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let _, c = List.nth (Lazy.force workloads) k in
      s2fa_agrees c
        (Space.random_cfg (Rng.create seed)
           c.S2fa.c_dspace.Dspace.ds_space))

(* Three random designs of one generated kernel; [true] when the kernel
   is refused by [Transform.analyse] (then nothing is derived). *)
let fuzz_agrees ~buffer_elems prog seed =
  match T.analyse prog with
  | None -> true
  | Some a ->
    let ds = Dspace.identify prog in
    let rng = Rng.create (seed + 1) in
    List.for_all
      (fun _ ->
        derived_agrees ~tasks:64 ~buffer_elems a prog
          (Dspace.to_merlin ds (Space.random_cfg rng ds.Dspace.ds_space)))
      [ 1; 2; 3 ]

let prop_c_kernels_derive =
  QCheck.Test.make ~name:"gen_c_kernel designs: summary = rewrite + analyse"
    ~count:300 (QCheck.int_range 0 1_000_000) (fun seed ->
      fuzz_agrees
        ~buffer_elems:[ ("in", Fuzz.c_cap); ("out", Fuzz.c_cap) ]
        (Fuzz.gen_c_kernel (Rng.create seed))
        seed)

let prop_gen_kernels_derive =
  QCheck.Test.make ~name:"gen_kernel designs: summary = rewrite + analyse"
    ~count:100 (QCheck.int_range 0 1_000_000) (fun seed ->
      let ast, len = Fuzz.gen_kernel (Rng.create seed) in
      match Fuzz.compile_flat ~len (S2fa_scala.Pretty.to_string ast) with
      | Error _ -> true
      | Ok (prog, buffer_elems) -> fuzz_agrees ~buffer_elems prog seed)

(* [kernel(N, a, o)] around [body], and a counted loop. *)
let hand_kernel ?(o = CPtr CDouble) body =
  { cfuncs =
      [ { cfname = "kernel";
          cfparams =
            [ { cpname = "N"; cpty = CInt; cpbitwidth = None };
              { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None };
              { cpname = "o"; cpty = o; cpbitwidth = None } ];
          cfret = None;
          cfbody = body } ] }

let counted ?(hi = EInt 16) var body = mk_loop ~var ~lo:(EInt 0) ~hi body

(* One kernel per condition [Transform.analyse] checks, each failing
   only that one. Summarized anyway, each gives a design that tiles
   loop [i] a summary other than the rewritten program's analysis:
   - the bound [a[t]] becomes a read of [a] in loop [t], a dependence
     on the write [a[t + 1]] (it sets the II of a flattened [t] when
     the nominal trip count is small);
   - the inner loop declares [int i], and loop [j] then counts [i * 2]
     as an integer multiply, not as the double one the flat analysis
     sees (its last declaration of [i] is a double);
   - the inner loop declares [i], so [i = i + 1] is no longer loop
     [t]'s recurrence, and [o[0]]'s is found instead. *)
let inexact_kernels () =
  let add_into o i e =
    SAssign (EIndex (EVar o, i), EBin (CAdd, EIndex (EVar o, i), e))
  in
  let task body = SFor (counted ~hi:(EVar "N") "t" body) in
  [ ( "a loop bound reads an array",
      hand_kernel
        [ task
            [ SFor
                (counted ~hi:(EIndex (EVar "a", EVar "t")) "i"
                   [ SDecl (CInt, "x", Some (EBin (CAdd, EVar "i", EInt 1))) ]);
              SAssign
                (EIndex (EVar "a", EBin (CAdd, EVar "t", EInt 1)), EInt 0) ]
        ] );
    ( "a name is float-typed in one declaration only",
      hand_kernel
        [ SDecl (CDouble, "i", Some (EDouble 0.5));
          task
            [ SFor (counted "i" [ add_into "o" (EVar "t") (EDouble 1.0) ]);
              SFor
                (counted "j"
                   [ add_into "o" (EVar "t") (EBin (CMul, EVar "i", EInt 2));
                     SDecl (CDouble, "i", Some (EDouble 1.5));
                     add_into "o" (EVar "t") (EVar "i") ]) ] ] );
    ( "a tileable loop's counter is assigned",
      hand_kernel ~o:(CPtr CInt)
        [ SDecl (CInt, "i", Some (EInt 0));
          task
            [ SFor
                (counted "i"
                   [ add_into "o" (EInt 0) (EIndex (EVar "a", EVar "i")) ]);
              SAssign (EVar "i", EBin (CAdd, EVar "i", EInt 1)) ];
          SAssign (EIndex (EVar "o", EInt 1), EVar "i") ] ) ]

(* [S2fa.estimate]'s choice for a bare program: the design's summary
   when [Transform.analyse] accepts the program, else the rewrite. *)
let estimate_design prog cfg =
  match T.analyse prog with
  | Some a -> E.model (T.summarize cfg a) ~tasks:64 ~buffer_elems:[]
  | None -> E.estimate (T.apply cfg prog) ~tasks:64 ~buffer_elems:[]

let test_inexact_kernels_rewrite () =
  List.iter
    (fun (what, prog) ->
      Alcotest.(check bool) (what ^ ": not analysed") true
        (Option.is_none (T.analyse prog));
      let ds = Dspace.identify prog in
      let rng = Rng.create 11 in
      for _ = 1 to 20 do
        let cfg =
          Dspace.to_merlin ds (Space.random_cfg rng ds.Dspace.ds_space)
        in
        let r, drawn = drawing (fun () -> estimate_design prog cfg) in
        let r', drawn' =
          drawing (fun () ->
              E.estimate (T.apply cfg prog) ~tasks:64 ~buffer_elems:[])
        in
        Alcotest.(check bool) (what ^ ": equal reports") true
          (drawn = drawn'
          && Result.map report_bits r = Result.map report_bits r')
      done)
    (inexact_kernels ())

(* The same through [S2fa.estimate]: a MiniScala loop bounded by an
   input element compiles to a bound that reads a buffer. *)
let test_inexact_compiled_kernel () =
  let c =
    S2fa.compile
      {|
class Bounded() extends Accelerator[Array[Int], Int] {
  val id: String = "Bounded"
  def call(in: Array[Int]): Int = {
    var s = 0
    for (i <- 0 until in(0)) {
      s = s + in(i)
    }
    s
  }
}
|}
  in
  Alcotest.(check bool) "not analysed" true
    (Option.is_none (Lazy.force c.S2fa.c_analysis));
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let cfg = Space.random_cfg rng c.S2fa.c_dspace.Dspace.ds_space in
    let r, drawn = drawing (fun () -> S2fa.estimate c cfg) in
    let r', drawn' =
      drawing (fun () ->
          E.estimate (S2fa.apply_design c cfg) ~tasks:4096
            ~buffer_elems:c.S2fa.c_buffer_elems)
    in
    Alcotest.(check bool) "equal reports" true
      (drawn = drawn' && Result.map report_bits r = Result.map report_bits r')
  done

let () =
  Alcotest.run "hls"
    [ ( "estimator",
        [ Alcotest.test_case "area seed feasible" `Quick
            test_area_seed_feasible;
          Alcotest.test_case "perf seed infeasible (S-W)" `Quick
            test_perf_seed_infeasible_for_sw;
          Alcotest.test_case "unroll trades area for cycles" `Quick
            test_unroll_reduces_cycles;
          Alcotest.test_case "pipelining helps" `Quick
            test_pipeline_reduces_cycles;
          Alcotest.test_case "LR recurrence II" `Quick test_lr_recurrence_ii;
          Alcotest.test_case "frequency bounds" `Quick test_frequency_bounds;
          Alcotest.test_case "eval minutes bounds" `Quick
            test_eval_minutes_bounds;
          Alcotest.test_case "bit-width vs transfer" `Quick
            test_bitwidth_affects_transfer;
          Alcotest.test_case "tasks scale time" `Quick test_more_tasks_more_time;
          Alcotest.test_case "utilization sanity" `Quick
            test_utilization_consistency;
          Alcotest.test_case "device model" `Quick test_device_model;
          Alcotest.test_case "check_report rejects corruption" `Quick
            test_check_report_rejects_corruption ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_estimate_deterministic; prop_reports_pass_sanity_checker ] );
      ( "derived",
        [ Alcotest.test_case "seeds and manual designs" `Quick
            test_workloads_derive;
          Alcotest.test_case "inexact kernels are rewritten" `Quick
            test_inexact_kernels_rewrite;
          Alcotest.test_case "inexact compiled kernel" `Quick
            test_inexact_compiled_kernel ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_workloads_derive; prop_c_kernels_derive;
              prop_gen_kernels_derive ] ) ]
