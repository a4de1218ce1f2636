(* The span profiler's contracts:

     - spans nest, close on exceptions, and attribute counters to the
       innermost open span;
     - the serialized span log is byte-reproducible: identical across
       repeated runs of the same seeded pipeline;
     - profiling has zero observer effect — the instrumented DSE
       produces bit-identical results with and without a profiler;
     - the folded-stack encoding falls back to span counts when the
       whole profile has zero virtual duration;
     - a disabled instrumentation call allocates nothing. *)

module Obs = S2fa_obs.Obs
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Driver = S2fa_dse.Driver
module Space = S2fa_tuner.Space
module Rng = S2fa_util.Rng

exception Boom

(* ------------------------- profiler core -------------------------- *)

let test_nesting_and_counters () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.count "dropped.outside";
      Obs.span "outer" (fun () ->
          Obs.count "outer.k";
          Obs.span "inner" (fun () ->
              Obs.count_by 3 "inner.k";
              Obs.count "inner.k")));
  Alcotest.(check int) "stack empty" 0 (Obs.Profiler.depth p);
  match Obs.Profiler.spans p with
  | [ inner; outer ] ->
    (* Completion order: children before parents. *)
    Alcotest.(check string) "inner name" "inner" inner.Obs.Profiler.sp_name;
    Alcotest.(check string) "outer name" "outer" outer.Obs.Profiler.sp_name;
    Alcotest.(check string) "inner path" "outer;inner"
      inner.Obs.Profiler.sp_path;
    Alcotest.(check int) "inner parent" outer.Obs.Profiler.sp_id
      inner.Obs.Profiler.sp_parent;
    Alcotest.(check (list (pair string int)))
      "inner counters" [ ("inner.k", 4) ] inner.Obs.Profiler.sp_counters;
    Alcotest.(check (list (pair string int)))
      "outer counters (outside-span count dropped)" [ ("outer.k", 1) ]
      outer.Obs.Profiler.sp_counters
  | spans ->
    Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_exception_safety () =
  let p = Obs.Profiler.create () in
  (try
     Obs.with_profiler p (fun () ->
         Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> raise Boom)))
   with Boom -> ());
  Alcotest.(check int) "stack unwound" 0 (Obs.Profiler.depth p);
  Alcotest.(check int) "both spans closed" 2
    (List.length (Obs.Profiler.spans p));
  Alcotest.(check bool) "ambient profiler restored" true
    (Obs.profiler () = None)

let test_disabled_is_passthrough () =
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  let r = Obs.span "nope" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Obs.count "nowhere";
  Obs.set_clock 99.0;
  Alcotest.(check (float 0.0)) "clock reads 0 when disabled" 0.0 (Obs.clock ())

(* Minor words allocated by 10 000 calls of [f], less those of an empty
   loop: the instrumented pipeline calls these on every hot path. *)
let minor_words f =
  let loop f =
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      f i
    done;
    Gc.minor_words () -. before
  in
  loop f -. loop (fun _ -> ())

let noop () = ()

let test_disabled_allocates_nothing () =
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  List.iter
    (fun (form, f) ->
      Alcotest.(check (float 0.0)) (form ^ ": minor words") 0.0 (minor_words f))
    [ ("count", fun _ -> Obs.count "k");
      ("count_by", fun i -> Obs.count_by i "k");
      ("span", fun _ -> Obs.span "s" noop);
      ("set_clock", fun _ -> Obs.set_clock 1.5);
      ("advance_clock", fun _ -> Obs.advance_clock 0.5);
      ("clock", fun _ -> ignore (Obs.clock ()));
      ("enabled", fun _ -> ignore (Obs.enabled ())) ]

(* A span that conses 1 000 list cells (24 000 bytes on a 64-bit host)
   records about that many bytes, whether or not a minor collection
   lands inside it. *)
let test_span_alloc_bytes () =
  List.iter
    (fun (what, collect) ->
      let p = Obs.Profiler.create () in
      Obs.with_profiler p (fun () ->
          Obs.span "cons" (fun () ->
              ignore (Sys.opaque_identity (List.init 1000 Fun.id));
              if collect then Gc.minor ()));
      match Obs.Profiler.spans p with
      | [ s ] ->
        let b = s.Obs.Profiler.sp_alloc_bytes in
        if b < 24_000. || b > 32_000. then
          Alcotest.failf "%s: %.0f bytes, not 24 000-32 000" what b
      | _ -> Alcotest.fail "expected one span")
    [ ("no collection", false); ("a minor collection", true) ]

let test_virtual_clock_attribution () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.set_clock 10.0;
      Obs.span "work" (fun () -> Obs.advance_clock 5.0));
  match Obs.Profiler.spans p with
  | [ s ] ->
    Alcotest.(check (float 0.0)) "vbegin" 10.0 s.Obs.Profiler.sp_vbegin;
    Alcotest.(check (float 0.0)) "vend" 15.0 s.Obs.Profiler.sp_vend
  | _ -> Alcotest.fail "expected one span"

(* ------------------------- serialization -------------------------- *)

(* Compile the kernel once: loop ids are gensym'd per compile, so two
   compiles give structurally equal but differently-named configs. Its
   analysis is made here too: it runs once per compiled kernel, as a
   [merlin.analyse] span of the first run that estimates a design, so
   only runs after it are alike span for span. *)
let kmeans =
  lazy
    (let w = Option.get (W.find "KMeans") in
     let c = W.compile w in
     ignore (Lazy.force c.S2fa.c_analysis);
     (w, c))

let run_profiled_dse () =
  let w, c = Lazy.force kmeans in
  let opts = { Driver.default_s2fa_opts with Driver.so_time_limit = 30.0 } in
  let p = Obs.Profiler.create () in
  let result =
    Obs.with_profiler p (fun () ->
        S2fa.explore ~opts ~tasks:w.W.w_tasks c (Rng.create 7))
  in
  (result, p)

let serialize spans =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Obs.span_to_json s);
      Buffer.add_char buf '\n')
    spans;
  Buffer.contents buf

let test_span_log_reproducible () =
  let _, p1 = run_profiled_dse () in
  let _, p2 = run_profiled_dse () in
  let a = serialize (Obs.Profiler.spans p1) in
  let b = serialize (Obs.Profiler.spans p2) in
  Alcotest.(check bool) "log non-empty" true (String.length a > 0);
  Alcotest.(check string) "byte-identical across runs" a b

let test_zero_observer_effect () =
  let w, c = Lazy.force kmeans in
  let opts = { Driver.default_s2fa_opts with Driver.so_time_limit = 30.0 } in
  let run () = S2fa.explore ~opts ~tasks:w.W.w_tasks c (Rng.create 7) in
  let plain = run () in
  let profiled, _ = run_profiled_dse () in
  Alcotest.(check int) "same evaluations" plain.Driver.rr_evals
    profiled.Driver.rr_evals;
  Alcotest.(check bool) "same clock (bit-identical)" true
    (plain.Driver.rr_minutes = profiled.Driver.rr_minutes);
  match (plain.Driver.rr_best, profiled.Driver.rr_best) with
  | Some (ca, pa), Some (cb, pb) ->
    Alcotest.(check string) "same design" (Space.key ca) (Space.key cb);
    Alcotest.(check bool) "same quality (bit-identical)" true (pa = pb)
  | None, None -> ()
  | _ -> Alcotest.fail "one run found a best, the other did not"

let test_json_roundtrip () =
  let _, p = run_profiled_dse () in
  List.iter
    (fun s ->
      match Obs.span_of_json (Obs.span_to_json s) with
      | None -> Alcotest.fail "roundtrip failed to parse"
      | Some s' ->
        (* Host fields are not serialized by default. *)
        Alcotest.(check bool) "deterministic fields survive" true
          (s' = { s with Obs.Profiler.sp_wall_ns = 0.0; sp_alloc_bytes = 0.0 }))
    (Obs.Profiler.spans p);
  (* With ~host:true the non-deterministic fields ride along. *)
  let s = List.hd (Obs.Profiler.spans p) in
  match Obs.span_of_json (Obs.span_to_json ~host:true s) with
  | Some s' -> Alcotest.(check bool) "host fields survive" true (s' = s)
  | None -> Alcotest.fail "host roundtrip failed to parse"

let test_load_file_rejects_garbage () =
  let bad = Filename.temp_file "obs" ".jsonl" in
  let oc = open_out bad in
  output_string oc "not a span\n";
  close_out oc;
  (match Obs.load_file bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error");
  Sys.remove bad

(* ------------------------- folded stacks -------------------------- *)

let test_folded_fallback_counts () =
  (* No virtual time advances: compile-only profile. Weights fall back
     to span counts so the flamegraph still renders. *)
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      for _ = 1 to 3 do
        Obs.span "a" (fun () -> Obs.span "b" (fun () -> ()))
      done);
  let rows = Obs.folded (Obs.Profiler.spans p) in
  Alcotest.(check (list (pair string int)))
    "span-count weights" [ ("a", 3); ("a;b", 3) ] rows

let test_folded_self_time () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.span "a" (fun () ->
          Obs.advance_clock 1.0;
          Obs.span "b" (fun () -> Obs.advance_clock 2.0)));
  let rows = Obs.folded (Obs.Profiler.spans p) in
  (* Self micro-minutes: a = 1.0, b = 2.0. *)
  Alcotest.(check (list (pair string int)))
    "self-time weights" [ ("a", 1_000_000); ("a;b", 2_000_000) ] rows

(* ------------------------- stage spans ---------------------------- *)

(* The profiler alone times the pipeline stages: a compile holds one
   span per front-end stage, and a DSE run without a result DB one
   [merlin.apply] and one [hls.estimate] per objective call, that is per
   search evaluation and per offline sample (114 + 96 at seed 7). *)
let test_stage_spans () =
  let w = Option.get (W.find "KMeans") in
  let p = Obs.Profiler.create () in
  let r =
    Obs.with_profiler p (fun () -> S2fa.explore (W.compile w) (Rng.create 7))
  in
  let spans = Obs.Profiler.spans p in
  let count ?(under = "") name =
    List.length
      (List.filter
         (fun s ->
           s.Obs.Profiler.sp_name = name
           && String.starts_with ~prefix:under s.Obs.Profiler.sp_path)
         spans)
  in
  Alcotest.(check int) "one compile" 1 (count "core.compile");
  List.iter
    (fun stage ->
      Alcotest.(check int) ("core.compile holds one " ^ stage) 1
        (count ~under:"core.compile;" stage))
    [ "scala.parse"; "scala.typecheck"; "jvm.compile"; "b2c.decompile";
      "b2c.flatten" ];
  let calls =
    r.Driver.rr_evals + Driver.default_s2fa_opts.Driver.so_samples
  in
  Alcotest.(check int) "merlin.apply per objective call" calls
    (count "merlin.apply");
  Alcotest.(check int) "hls.estimate per objective call" calls
    (count "hls.estimate")

let () =
  Alcotest.run "obs"
    [ ( "profiler",
        [ Alcotest.test_case "nesting + counters" `Quick
            test_nesting_and_counters;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "disabled passthrough" `Quick
            test_disabled_is_passthrough;
          Alcotest.test_case "disabled calls allocate nothing" `Quick
            test_disabled_allocates_nothing;
          Alcotest.test_case "span allocation in bytes" `Quick
            test_span_alloc_bytes;
          Alcotest.test_case "virtual-clock attribution" `Quick
            test_virtual_clock_attribution ] );
      ( "determinism",
        [ Alcotest.test_case "span log byte-reproducible" `Quick
            test_span_log_reproducible;
          Alcotest.test_case "zero observer effect" `Quick
            test_zero_observer_effect ] );
      ( "serialization",
        [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "load_file rejects garbage" `Quick
            test_load_file_rejects_garbage;
          Alcotest.test_case "folded fallback to counts" `Quick
            test_folded_fallback_counts;
          Alcotest.test_case "folded self time" `Quick test_folded_self_time ]
      );
      ( "stages",
        [ Alcotest.test_case "compile and explore spans" `Quick
            test_stage_spans ] ) ]
