(* Fault-injection tests: the differential harness of the robustness PR.

   The load-bearing properties: a fault-free injector is bit-identical
   to no injector at all; a faulted run under a fixed seed and spec is
   byte-reproducible; quarantined points never enter the shared result
   database; and a crash at any checkpoint followed by `resume` yields
   a final best bit-identical to the uninterrupted run. *)
module Rng = S2fa_util.Rng
module Space = S2fa_tuner.Space
module Resultdb = S2fa_tuner.Resultdb
module Dspace = S2fa_dse.Dspace
module Driver = S2fa_dse.Driver
module Seed = S2fa_dse.Seed
module Fault = S2fa_fault.Fault
module E = S2fa_hls.Estimate
module T = S2fa_telemetry.Telemetry
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa

let compiled =
  let tbl = Hashtbl.create 8 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some c -> c
    | None ->
      let c = W.compile (Option.get (W.find name)) in
      Hashtbl.add tbl name c;
      c

let quick_opts =
  { Driver.default_s2fa_opts with
    Driver.so_time_limit = 30.0;
    so_samples = 16 }

let spec_of str =
  match Fault.parse_spec str with
  | Ok s -> s
  | Error m -> Alcotest.failf "spec %S rejected: %s" str m

(* The stock schedule most tests run under: all four classes active. *)
let mixed_spec =
  spec_of "crash=0.08,hang=0.04,transient=0.05,core_loss=0.02,timeout=30"

(* One traced run of [flow]: the static S2FA flow, the DATuner-style
   dynamic flow or vanilla OpenTuner, all under [opts]' limit. *)
let traced_explore ?faults ?checkpoint ?(opts = quick_opts) ?(flow = `S2fa) c
    seed =
  let buf = Buffer.create 4096 in
  let tr = T.create ~sinks:[ T.buffer_sink buf ] () in
  let rng = Rng.create seed in
  let r =
    match flow with
    | `S2fa -> S2fa.explore ~opts ~trace:tr ?faults ?checkpoint c rng
    | `Dynamic ->
      Driver.run_dynamic ~opts ~trace:tr ?faults ?checkpoint c.S2fa.c_dspace
        (S2fa.objective c) rng
    | `Vanilla ->
      S2fa.explore_vanilla ~time_limit:opts.Driver.so_time_limit ~trace:tr
        ?faults ?checkpoint c rng
  in
  (r, Buffer.contents buf)

(* A run's observable outcome, compared with [compare] so NaN and the
   exact float bits both count. *)
let outcome (r : Driver.run_result) =
  ( (match r.Driver.rr_best with
    | Some (cfg, q) -> Some (Space.key cfg, q)
    | None -> None),
    r.Driver.rr_minutes,
    r.Driver.rr_evals )

let check_same_outcome what a b =
  if compare (outcome a) (outcome b) <> 0 then
    Alcotest.failf "%s: outcomes differ" what

(* ---------- spec parsing ---------- *)

let test_parse_spec_ok () =
  let s = spec_of "crash=0.05,hang=0.02,timeout=45" in
  Alcotest.(check (float 0.0)) "crash" 0.05 s.Fault.fs_crash;
  Alcotest.(check (float 0.0)) "hang" 0.02 s.Fault.fs_hang;
  Alcotest.(check (float 0.0)) "transient" 0.0 s.Fault.fs_transient;
  Alcotest.(check (float 0.0)) "timeout" 45.0 s.Fault.fs_timeout;
  Alcotest.(check int) "retries default" 3 s.Fault.fs_max_retries;
  (* The canonical rendering round-trips. *)
  let s' = spec_of (Fault.spec_string s) in
  Alcotest.(check bool) "spec_string round-trips" true (s = s');
  Alcotest.(check bool) "empty spec is zero" true
    (spec_of "" = Fault.zero_spec)

let test_parse_spec_bad () =
  List.iter
    (fun str ->
      match Fault.parse_spec str with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" str
      | Error _ -> ())
    [ "crash=1.5";            (* probability out of range *)
      "crash=-0.1";
      "bogus=1";              (* unknown key *)
      "crash=0.6,hang=0.6";   (* probabilities sum past 1 *)
      "timeout=0";            (* hangs must cost something *)
      "retries=-1";
      "backoff=-2";
      "crash";                (* no value *)
      "crash=zap" ]

(* ---------- fault-free identity & determinism ---------- *)

let test_fault_free_is_identity () =
  let c = compiled "KMeans" in
  let bare, jsonl_bare = traced_explore c 21 in
  let inj = Fault.create ~seed:21 Fault.zero_spec in
  let hardened, jsonl_inj = traced_explore ~faults:inj c 21 in
  Alcotest.(check string) "byte-identical trace" jsonl_bare jsonl_inj;
  check_same_outcome "fault-free injector" bare hardened;
  let st = Fault.stats inj in
  Alcotest.(check int) "no retries" 0 st.Fault.st_retries;
  Alcotest.(check bool) "no injections" true
    (List.for_all (fun (_, n) -> n = 0) st.Fault.st_injected)

let test_faulted_run_is_reproducible () =
  let c = compiled "KMeans" in
  let run () =
    traced_explore ~faults:(Fault.create ~seed:22 mixed_spec) c 22
  in
  let r1, j1 = run () in
  let r2, j2 = run () in
  Alcotest.(check string) "byte-identical faulted trace" j1 j2;
  check_same_outcome "faulted determinism" r1 r2;
  (* And the schedule actually fired: same spec, different seed, at
     least one class injected. *)
  match r1.Driver.rr_fault with
  | None -> Alcotest.fail "no fault stats on a faulted run"
  | Some st ->
    Alcotest.(check bool) "something was injected" true
      (List.exists (fun (_, n) -> n > 0) st.Fault.st_injected)

(* ---------- quarantine & the database poisoning guard ---------- *)

let test_quarantine_never_enters_db () =
  let c = compiled "S-W" in
  let spec =
    { Fault.zero_spec with
      Fault.fs_crash = 1.0;
      fs_max_retries = 2;
      fs_backoff = 0.5 }
  in
  let db = Resultdb.create () in
  let r =
    S2fa.explore ~opts:quick_opts ~db
      ~faults:(Fault.create ~seed:5 spec)
      c (Rng.create 5)
  in
  (* Every search-phase evaluation crashed through its retries; the
     quarantined tombstones must all have been refused. *)
  List.iter
    (fun (key, e) ->
      if Resultdb.poisoned e then
        Alcotest.failf "poisoned result memoized for %s" key)
    (Resultdb.to_list db);
  (match r.Driver.rr_cache with
  | None -> Alcotest.fail "no cache snapshot"
  | Some s ->
    Alcotest.(check bool) "insertions were refused" true
      (s.Resultdb.sn_rejected > 0));
  match r.Driver.rr_fault with
  | None -> Alcotest.fail "no fault stats"
  | Some st ->
    Alcotest.(check bool) "points were quarantined" true
      (st.Fault.st_quarantined > 0)

(* ---------- the report sanity checker ---------- *)

let test_report_ok_on_real_estimates () =
  List.iter
    (fun (w : W.t) ->
      let c = compiled w.W.w_name in
      List.iter
        (fun cfg ->
          let r = S2fa.estimate ~tasks:w.W.w_tasks c cfg in
          match E.check_report r with
          | Ok () -> ()
          | Error m ->
            Alcotest.failf "%s: genuine report rejected: %s" w.W.w_name m)
        [ Seed.area_seed c.S2fa.c_dspace;
          Seed.performance_seed c.S2fa.c_dspace;
          Seed.structured_seed c.S2fa.c_dspace ])
    W.all

let test_garbage_reports_rejected () =
  let inj =
    Fault.create ~seed:3 { Fault.zero_spec with Fault.fs_transient = 1.0 }
  in
  (* 32 draws cover every corruption mode several times over. *)
  for _ = 1 to 32 do
    let g = Fault.garbage_report inj in
    if E.report_ok g then
      Alcotest.failf "garbage report passed the sanity checker: %a"
        E.pp_report g
  done

(* ---------- checkpoint serialization ---------- *)

let snapshots_of ?faults ?(every = 8.0) ?flow c seed =
  let snaps = ref [] in
  let checkpoint =
    { Driver.ck_path = None;
      ck_every = every;
      ck_meta = [ ("workload", "test"); ("seed", string_of_int seed) ];
      ck_hook = Some (fun ck -> snaps := ck :: !snaps) }
  in
  let r, _ = traced_explore ?faults ~checkpoint ?flow c seed in
  (r, List.rev !snaps)

let test_checkpoint_roundtrip () =
  let c = compiled "KMeans" in
  let _, snaps = snapshots_of ~faults:(Fault.create ~seed:31 mixed_spec) c 31 in
  Alcotest.(check bool) "snapshots were taken" true (snaps <> []);
  List.iter
    (fun ck ->
      let lines = Driver.ck_lines ck in
      (match Driver.ck_of_lines lines with
      | Error m -> Alcotest.failf "round-trip failed: %s" m
      | Ok ck' ->
        if compare ck ck' <> 0 then Alcotest.fail "round-trip changed the ck");
      (* Truncation (a crash mid-write) must be detected. *)
      let truncated = List.filteri (fun i _ -> i < List.length lines - 1) lines in
      match Driver.ck_of_lines truncated with
      | Ok _ -> Alcotest.fail "truncated checkpoint accepted"
      | Error _ -> ())
    snaps;
  (* And the file path: write-to-temp + rename, then load. *)
  let ck = List.nth snaps (List.length snaps - 1) in
  let path = Filename.temp_file "s2fa_ck" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S2fa_telemetry.Checkpoint.write path (Driver.ck_lines ck);
      match Driver.load_checkpoint path with
      | Error m -> Alcotest.failf "load failed: %s" m
      | Ok ck' ->
        if compare ck ck' <> 0 then Alcotest.fail "file round-trip changed it")

(* An interval the snapshot stepper cannot use is refused by every flow
   before its first evaluation: at 0 or below the stepper would never
   return, and at nan or inf it would never take a snapshot. *)
let test_bad_interval_rejected () =
  let c = compiled "KMeans" in
  let ds = c.S2fa.c_dspace in
  let calls = ref 0 in
  let objective cfg =
    incr calls;
    S2fa.objective c cfg
  in
  let flows =
    [ ("s2fa", fun checkpoint ->
          Driver.run_s2fa ~opts:quick_opts ~checkpoint ds objective
            (Rng.create 1));
      ("dynamic", fun checkpoint ->
          Driver.run_dynamic ~opts:quick_opts ~checkpoint ds objective
            (Rng.create 1));
      ("vanilla", fun checkpoint ->
          Driver.run_vanilla ~time_limit:30.0 ~checkpoint ds objective
            (Rng.create 1)) ]
  in
  List.iter
    (fun every ->
      let checkpoint =
        { Driver.ck_path = None; ck_every = every; ck_meta = [];
          ck_hook = None }
      in
      List.iter
        (fun (flow, run) ->
          let what = Printf.sprintf "%s, every %g" flow every in
          (match run checkpoint with
          | exception Invalid_argument m ->
            Alcotest.(check string) what
              "checkpoint interval must be positive" m
          | _ -> Alcotest.failf "%s: accepted" what);
          Alcotest.(check int) (what ^ ": evaluations") 0 !calls)
        flows)
    [ 0.0; -5.0; nan; infinity ]

(* The run core refuses a time limit that is not positive and finite on
   every flow before the first evaluation: at 0, -5 or nan a run would
   find nothing, and a vanilla run at inf would never end. *)
let test_bad_time_limit_rejected () =
  let c = compiled "KMeans" in
  let ds = c.S2fa.c_dspace in
  let calls = ref 0 in
  let objective cfg =
    incr calls;
    S2fa.objective c cfg
  in
  let flows =
    [ ("s2fa", fun limit ->
          Driver.run_s2fa
            ~opts:{ quick_opts with Driver.so_time_limit = limit }
            ds objective (Rng.create 1));
      ("dynamic", fun limit ->
          Driver.run_dynamic
            ~opts:{ quick_opts with Driver.so_time_limit = limit }
            ds objective (Rng.create 1));
      ("vanilla", fun limit ->
          Driver.run_vanilla ~time_limit:limit ds objective (Rng.create 1)) ]
  in
  List.iter
    (fun limit ->
      List.iter
        (fun (flow, run) ->
          let what = Printf.sprintf "%s, limit %g" flow limit in
          (match run limit with
          | exception Invalid_argument m ->
            Alcotest.(check string) what
              "time limit must be positive and finite" m
          | _ -> Alcotest.failf "%s: accepted" what);
          Alcotest.(check int) (what ^ ": evaluations") 0 !calls)
        flows)
    [ 0.0; -5.0; nan; infinity ]

(* ---------- crash-at-checkpoint + resume ≡ uninterrupted ---------- *)

let resume_matches ?faults_spec ?flow c seed =
  let mk_inj () =
    Option.map (fun s -> Fault.create ~seed s) faults_spec
  in
  let full, _ = traced_explore ?faults:(mk_inj ()) ?flow c seed in
  let _, snaps = snapshots_of ?faults:(mk_inj ()) ?flow c seed in
  if snaps = [] then `No_snapshot
  else begin
    (* "Crash at any checkpoint": resume from every snapshot taken. *)
    List.iter
      (fun snapshot ->
        match
          S2fa.resume ~opts:quick_opts ?faults:(mk_inj ()) ~snapshot c
            (Rng.create seed)
        with
        | Error m ->
          Alcotest.failf "resume at %.1f min failed: %s"
            snapshot.Driver.ck_minutes m
        | Ok resumed ->
          if compare (outcome full) (outcome resumed) <> 0 then
            Alcotest.failf
              "resume at %.1f min diverged from the uninterrupted run"
              snapshot.Driver.ck_minutes)
      snaps;
    `Checked (List.length snaps)
  end

let check_resume_equals_uninterrupted flow () =
  let c = compiled "KMeans" in
  (match resume_matches ~flow c 9 with
  | `No_snapshot -> Alcotest.fail "fault-free run took no snapshot"
  | `Checked _ -> ());
  match resume_matches ~faults_spec:mixed_spec ~flow c 9 with
  | `No_snapshot -> Alcotest.fail "faulted run took no snapshot"
  | `Checked _ -> ()

let test_resume_equals_uninterrupted = check_resume_equals_uninterrupted `S2fa

let test_resume_rejects_divergence () =
  let c = compiled "KMeans" in
  let _, snaps = snapshots_of c 13 in
  let snapshot = List.hd snaps in
  (* Wrong seed: the replay's state at the snapshot minute cannot match
     the stored bytes. *)
  match S2fa.resume ~opts:quick_opts ~snapshot c (Rng.create 14) with
  | Ok _ -> Alcotest.fail "resume under the wrong seed accepted"
  | Error _ -> ()

(* Random fault schedules over random workloads: checkpoint/resume
   equivalence holds everywhere, not just on the hand-picked cases. *)
let prop_resume_any_schedule =
  QCheck.Test.make ~name:"resume ≡ uninterrupted under random fault schedules"
    ~count:6
    QCheck.(
      triple (int_range 0 7) (int_range 0 10_000)
        (triple (int_range 0 10) (int_range 0 5) (int_range 0 5)))
    (fun (widx, seed, (crash10, hang10, transient10)) ->
      let w = List.nth W.all widx in
      let c = compiled w.W.w_name in
      let spec =
        spec_of
          (Printf.sprintf "crash=%.2f,hang=%.2f,transient=%.2f,timeout=20"
             (float_of_int crash10 /. 100.)
             (float_of_int hang10 /. 100.)
             (float_of_int transient10 /. 100.))
      in
      match resume_matches ~faults_spec:spec c seed with
      | `No_snapshot -> true  (* run ended before the first interval *)
      | `Checked _ -> true    (* resume_matches fails the test itself *))

(* ---------- core loss ---------- *)

let test_core_loss_degrades_gracefully () =
  let c = compiled "KMeans" in
  let spec = { Fault.zero_spec with Fault.fs_core_loss = 0.4 } in
  let inj = Fault.create ~seed:17 spec in
  let r, _ = traced_explore ~faults:inj c 17 in
  let st = Option.get r.Driver.rr_fault in
  Alcotest.(check bool) "cores actually died" true (st.Fault.st_cores_lost > 0);
  Alcotest.(check bool) "run still completed" true (r.Driver.rr_evals > 0);
  Alcotest.(check bool) "still found something feasible" true
    (r.Driver.rr_best <> None)

let test_more_cores_never_finish_later () =
  let c = compiled "S-W" in
  let minutes cores =
    let opts = { quick_opts with Driver.so_cores = cores } in
    (S2fa.explore ~opts c (Rng.create 19)).Driver.rr_minutes
  in
  let ms = List.map minutes [ 1; 2; 4; 8 ] in
  let rec mono = function
    | a :: (b :: _ as rest) -> a >= b && mono rest
    | _ -> true
  in
  if not (mono ms) then
    Alcotest.failf "finish times not monotone in cores: %s"
      (String.concat ", " (List.map (Printf.sprintf "%.1f") ms))

let () =
  Alcotest.run "fault"
    [ ( "spec",
        [ Alcotest.test_case "parse ok" `Quick test_parse_spec_ok;
          Alcotest.test_case "parse bad" `Quick test_parse_spec_bad ] );
      ( "identity",
        [ Alcotest.test_case "fault-free ≡ no injector" `Slow
            test_fault_free_is_identity;
          Alcotest.test_case "faulted run reproducible" `Slow
            test_faulted_run_is_reproducible ] );
      ( "quarantine",
        [ Alcotest.test_case "never enters the DB" `Slow
            test_quarantine_never_enters_db ] );
      ( "sanity checker",
        [ Alcotest.test_case "real estimates pass" `Slow
            test_report_ok_on_real_estimates;
          Alcotest.test_case "garbage rejected" `Quick
            test_garbage_reports_rejected ] );
      ( "checkpoint",
        [ Alcotest.test_case "round-trip & truncation" `Slow
            test_checkpoint_roundtrip;
          Alcotest.test_case "bad interval rejected" `Quick
            test_bad_interval_rejected;
          Alcotest.test_case "bad time limit rejected" `Quick
            test_bad_time_limit_rejected;
          Alcotest.test_case "resume ≡ uninterrupted" `Slow
            test_resume_equals_uninterrupted;
          Alcotest.test_case "resume ≡ uninterrupted (dynamic)" `Slow
            (check_resume_equals_uninterrupted `Dynamic);
          Alcotest.test_case "resume ≡ uninterrupted (vanilla)" `Slow
            (check_resume_equals_uninterrupted `Vanilla);
          Alcotest.test_case "resume rejects divergence" `Slow
            test_resume_rejects_divergence ] );
      ( "core loss",
        [ Alcotest.test_case "graceful degradation" `Slow
            test_core_loss_degrades_gracefully;
          Alcotest.test_case "more cores never later" `Slow
            test_more_cores_never_finish_later ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_resume_any_schedule ] ) ]
