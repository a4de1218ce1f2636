(* The event-heap core, model-checked and pinned: the priority heap
   against a sorted-list model under arbitrary insert / pop / re-key /
   remove interleavings, the admission deque against a plain list, a
   committed golden pinning the tie-break order on simultaneous events,
   and a golden of report, telemetry, checkpoint and resume digests
   across every policy and SLO configuration, a federation run and the
   chaos campaigns. *)
module Pheap = S2fa_util.Pheap
module Fleet = S2fa_fleet.Fleet
module Traffic = S2fa_workloads.Traffic
module W = S2fa_workloads.Workloads
module T = S2fa_telemetry.Telemetry
module Fault = S2fa_fault.Fault
module Fed = S2fa_federation.Federation
module Chaos = S2fa_workloads.Chaos

(* ---------- priority heap vs sorted-list model ---------- *)

(* Keys carry a unique sequence number, so the model's minimum is
   unique and the comparison with the heap's pop is exact. *)
let prop_pheap_vs_list =
  QCheck.Test.make ~name:"heap matches sorted-list model" ~count:300
    QCheck.(list (pair small_int (int_range 0 3)))
    (fun ops ->
      let h = Pheap.create () in
      let seq = ref 0 in
      let live = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (x, op) ->
          match op with
          | 0 ->
            incr seq;
            let k = (x mod 50, !seq) in
            let hd = Pheap.insert h k () in
            live := (k, hd) :: !live
          | 1 -> (
            match Pheap.pop h with
            | None -> check (!live = [])
            | Some (k, ()) ->
              let mn =
                List.fold_left
                  (fun acc (k, _) -> min acc k)
                  (max_int, max_int) !live
              in
              check (k = mn);
              live := List.filter (fun (_, hd) -> Pheap.mem hd) !live)
          | 2 -> (
            (* Re-key in either direction: the simulator both advances
               device deadlines and disarms them to infinity. *)
            match !live with
            | [] -> ()
            | l ->
              let _, hd = List.nth l (x mod List.length l) in
              incr seq;
              let k' = (x * 7 mod 50, !seq) in
              Pheap.update h hd k';
              live :=
                List.map
                  (fun (k, h0) -> if h0 == hd then (k', h0) else (k, h0))
                  l)
          | _ -> (
            match !live with
            | [] -> ()
            | l ->
              let _, hd = List.nth l (x mod List.length l) in
              Pheap.remove h hd;
              live := List.filter (fun (_, h0) -> not (h0 == hd)) l))
        ops;
      let rec drain acc =
        match Pheap.pop h with
        | None -> List.rev acc
        | Some (k, ()) -> drain (k :: acc)
      in
      let got = drain [] in
      let want = List.sort compare (List.map fst !live) in
      !ok && got = want)

let test_heap_unit () =
  let h = Pheap.create () in
  Alcotest.(check bool) "empty peek" true (Pheap.peek h = None);
  Alcotest.(check bool) "empty pop" true (Pheap.pop h = None);
  let a = Pheap.insert h 5 "a" in
  let b = Pheap.insert h 3 "b" in
  let c = Pheap.insert h 7 "c" in
  Alcotest.(check int) "length" 3 (Pheap.length h);
  Alcotest.(check bool) "peek is min" true (Pheap.peek h = Some (3, "b"));
  Pheap.decrease_key h c 1;
  Alcotest.(check bool) "decrease-key promotes" true
    (Pheap.peek h = Some (1, "c"));
  (try
     Pheap.decrease_key h b 100;
     Alcotest.fail "decrease_key must reject an increase"
   with Invalid_argument _ -> ());
  Pheap.update h b 100;
  Alcotest.(check int) "update reads back" 100 (Pheap.key b);
  Alcotest.(check string) "value reads back" "b" (Pheap.value b);
  Pheap.remove h a;
  Alcotest.(check bool) "removed handle is dead" false (Pheap.mem a);
  (try
     Pheap.remove h a;
     Alcotest.fail "double remove must be rejected"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "pop order after surgery" true
    (Pheap.pop h = Some (1, "c"));
  Alcotest.(check bool) "last element" true (Pheap.pop h = Some (100, "b"));
  Alcotest.(check bool) "drained" true (Pheap.is_empty h);
  (try
     Pheap.update h b 0;
     Alcotest.fail "update of a popped handle must be rejected"
   with Invalid_argument _ -> ())

(* ---------- admission deque vs plain-list model ---------- *)

let rec split_at n l =
  if n <= 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: tl ->
      let a, b = split_at (n - 1) tl in
      (x :: a, b)

let prop_dq_model =
  QCheck.Test.make ~name:"deque matches plain-list model" ~count:300
    QCheck.(list (pair small_int (int_range 0 3)))
    (fun ops ->
      let q = Fleet.Dq.create () in
      let model = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (x, op) ->
          (match op with
          | 0 ->
            Fleet.Dq.push q x;
            model := !model @ [ x ]
          | 1 ->
            (* Front-requeue takes a whole recovered batch at once. *)
            let xs = [ x; x + 1; x + 2 ] in
            Fleet.Dq.push_front q xs;
            model := xs @ !model
          | 2 ->
            let n = x mod 5 in
            let want, rest = split_at n !model in
            model := rest;
            check (Fleet.Dq.take q n = want)
          | _ ->
            check (Fleet.Dq.drain q = !model);
            model := []);
          check (Fleet.Dq.len q = List.length !model);
          check
            (Fleet.Dq.peek q
            = (match !model with [] -> None | h :: _ -> Some h)))
        ops;
      check (Fleet.Dq.to_list q = !model);
      !ok)

(* ---------- serving scenarios ---------- *)

let tenants =
  lazy
    [ Traffic.tenant ~rate:300.0 ~weight:1.0 (Option.get (W.find "KMeans"));
      Traffic.tenant ~rate:200.0 ~weight:3.0 (Option.get (W.find "PR")) ]

let scenario =
  lazy
    (let ts = Lazy.force tenants in
     (Traffic.apps ~seed:11 ts, Traffic.requests ~seed:11 ~horizon:0.4 ts))

(* A fresh injector per run (same seed) keeps every run's fault-draw
   sequence identical, exactly as a re-run would. *)
let serve_capture ?fspec ?(devices = 2) ?(policy = Fleet.Fcfs)
    ?(slo = Fleet.no_slo) apps requests =
  let buf = Buffer.create 4096 in
  let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
  let faults = Option.map (fun spec -> Fault.create ~seed:5 spec) fspec in
  let opts =
    { Fleet.default_opts with
      Fleet.o_devices = devices;
      o_policy = policy;
      o_slo = slo }
  in
  let outcome = Fleet.serve ~opts ~trace ?faults apps requests in
  T.flush trace;
  (outcome, Buffer.contents buf)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let outcome_fingerprint (oc : Fleet.outcome) =
  Fleet.report_to_string oc.Fleet.oc_report
  ^ String.concat ";"
      (List.map
         (fun (r : Fleet.result) ->
           Printf.sprintf "%d:%d:%s:%b" r.Fleet.rs_app r.Fleet.rs_id
             (T.Json.fstr r.Fleet.rs_done) r.Fleet.rs_accelerated)
         oc.Fleet.oc_results)

(* ---------- simultaneous-event tie-breaks, pinned ---------- *)

let rec take n l =
  if n = 0 then [] else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl

(* A scenario engineered for exact event-time collisions. A 16-request
   burst at t = 0 over a 4-device pool with batch 4 launches four
   identical invocations in the same instant, so their completions (and
   any watchdog timeouts under the hang injector) tie to the bit and
   only the device index breaks the tie. A probe run then harvests the
   two earliest completion instants and replays them as arrival times —
   arrival/completion ties, duplicated — exercising the
   arrival-before-device rank on equal clocks. *)
let tie_slo =
  { Fleet.sl_hang_factor = 2.0;
    sl_hedge = true;
    sl_breaker = Some { Fleet.bk_failures = 1; bk_cooldown_s = 1.0; bk_probes = 1 } }

let tie_fspec = { Fault.zero_spec with Fault.fs_hang = 0.5 }

let tie_scenario =
  lazy
    (let tn =
       Traffic.tenant ~rate:200.0 ~weight:1.0 ~batch:4 ~queue_cap:64
         (Option.get (W.find "KMeans"))
     in
     let apps = Traffic.apps ~seed:7 [ tn ] in
     let raw = Traffic.requests ~seed:7 ~horizon:0.4 [ tn ] in
     let burst =
       List.mapi
         (fun i (r : Fleet.request) ->
           { r with Fleet.rq_id = i; rq_arrival = 0.0 })
         (take 16 raw)
     in
     let probe, _ =
       serve_capture ~fspec:tie_fspec ~devices:4 ~slo:tie_slo apps burst
     in
     let instants =
       List.sort_uniq compare
         (List.map (fun (r : Fleet.result) -> r.Fleet.rs_done)
            probe.Fleet.oc_results)
     in
     let t1, t2 =
       match instants with
       | a :: b :: _ -> (a, b)
       | _ -> Alcotest.fail "tie probe produced fewer than two instants"
     in
     let wave =
       List.mapi
         (fun i (r : Fleet.request) ->
           { r with
             Fleet.rq_id = 16 + i;
             rq_arrival = (if i < 2 then t1 else t2) })
         (take 4 (List.filteri (fun i _ -> i >= 16) raw))
     in
     let requests =
       List.sort
         (fun (a : Fleet.request) (b : Fleet.request) ->
           compare (a.Fleet.rq_arrival, a.Fleet.rq_id)
             (b.Fleet.rq_arrival, b.Fleet.rq_id))
         (burst @ wave)
     in
     (apps, requests))

(* dune runtest runs us in test/; a bare [dune exec] runs from the
   workspace root. Pick by directory, not file, so the update mode can
   create a golden that does not exist yet. *)
let golden name =
  let dir =
    if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
    else "test/golden"
  in
  Filename.concat dir name

let test_tie_golden () =
  let apps, requests = Lazy.force tie_scenario in
  let oh, jh =
    serve_capture ~fspec:tie_fspec ~devices:4 ~slo:tie_slo apps requests
  in
  (* The scenario must actually collide: at least one completion
     instant shared by two results, and at least one arrival placed on
     a completion instant by construction. *)
  let dones =
    List.map (fun (r : Fleet.result) -> r.Fleet.rs_done) oh.Fleet.oc_results
  in
  let has_dup =
    List.length dones > List.length (List.sort_uniq compare dones)
  in
  Alcotest.(check bool) "simultaneous completions present" true has_dup;
  let report = Fleet.report_to_string oh.Fleet.oc_report in
  if Sys.getenv_opt "S2FA_UPDATE_GOLDEN" = Some "1" then begin
    Out_channel.with_open_bin (golden "serve_pr9_ties.report") (fun oc ->
        Out_channel.output_string oc report);
    Out_channel.with_open_bin (golden "serve_pr9_ties.jsonl") (fun oc ->
        Out_channel.output_string oc jh)
  end
  else begin
    Alcotest.(check string) "tie report matches the committed golden"
      (read_file (golden "serve_pr9_ties.report"))
      report;
    Alcotest.(check string) "tie JSONL matches the committed golden"
      (read_file (golden "serve_pr9_ties.jsonl"))
      jh
  end

(* ---------- fleet runs, pinned ---------- *)

(* golden/fleet_runs.txt pins the MD5 of every report, telemetry stream,
   snapshot and resumed outcome below, so that a change to the event
   core that moves any of them shows up as a diff. The file holds one
   section per test case, in [runs_sections] order; a section is the
   lines starting with its key. [S2FA_UPDATE_GOLDEN=1] rewrites the
   running case's section and keeps the others. *)
let runs_path = golden "fleet_runs.txt"

let runs_sections = [ "sweep"; "ckpt"; "fed"; "chaos"; "fedchaos" ]

let check_runs key lines =
  let key_of l =
    match String.index_opt l ' ' with Some i -> String.sub l 0 i | None -> l
  in
  let stored =
    if Sys.file_exists runs_path then
      String.split_on_char '\n' (read_file runs_path)
      |> List.filter (fun l -> l <> "")
    else []
  in
  let section k = List.filter (fun l -> key_of l = k) stored in
  if Sys.getenv_opt "S2FA_UPDATE_GOLDEN" = Some "1" then
    Out_channel.with_open_bin runs_path (fun oc ->
        List.iter
          (fun k ->
            List.iter
              (fun l -> Out_channel.output_string oc (l ^ "\n"))
              (if k = key then lines else section k))
          runs_sections)
  else
    Alcotest.(check (list string)) (key ^ " matches " ^ runs_path)
      (section key) lines

let md5 s = Digest.to_hex (Digest.string s)

let test_sweep_golden () =
  let apps, requests = Lazy.force scenario in
  let with_deadline = Fleet.with_deadline 10.0 requests in
  let armed =
    { Fleet.sl_hang_factor = 3.0;
      sl_hedge = true;
      sl_breaker = Some Fleet.default_breaker }
  in
  let chaos_spec =
    { Fault.zero_spec with Fault.fs_hang = 0.3; fs_core_loss = 0.1 }
  in
  let lines =
    List.concat_map
      (fun policy ->
        List.map
          (fun (nm, reqs, slo, fspec) ->
            let oc, jsonl =
              serve_capture ?fspec ~devices:3 ~policy ~slo apps reqs
            in
            Printf.sprintf "sweep %s/%s report=%s jsonl=%s"
              (Fleet.policy_name policy) nm
              (md5 (Fleet.report_to_string oc.Fleet.oc_report))
              (md5 jsonl))
          [ ("plain", requests, Fleet.no_slo, None);
            ("deadline", with_deadline, Fleet.no_slo, None);
            ("chaos", with_deadline, armed, Some chaos_spec) ])
      Fleet.all_policies
  in
  check_runs "sweep" lines

(* Every mid-serve snapshot, and the outcome of a resume from the last
   one, which must also equal the uninterrupted outcome. *)
let test_ckpt_golden () =
  let apps, requests = Lazy.force scenario in
  let oc, snaps, snapshot =
    let ck = Filename.temp_file "fleet_heap" ".ck" in
    let copies = ref [] in
    let copy_sink =
      { T.on_event =
          (fun (ev : T.event) ->
            match ev.T.e_kind with
            | T.Checkpoint_written { path; _ } ->
              copies := read_file path :: !copies
            | _ -> ());
        T.on_flush = ignore }
    in
    let trace = T.create ~sinks:[ copy_sink ] () in
    let spec =
      { Fleet.cks_path = ck; cks_every_s = 2.0; cks_meta = [ ("kind", "diff") ] }
    in
    let outcome = Fleet.serve ~trace ~checkpoint:spec apps requests in
    let snapshot =
      match Fleet.load_checkpoint ck with
      | Error m -> Alcotest.failf "load checkpoint: %s" m
      | Ok s -> s
    in
    Sys.remove ck;
    (outcome, List.rev !copies, snapshot)
  in
  Alcotest.(check bool) "several mid-serve snapshots" true
    (List.length snaps >= 3);
  let got = outcome_fingerprint (Fleet.resume ~snapshot apps requests) in
  Alcotest.(check string) "resume lands on the uninterrupted outcome"
    (outcome_fingerprint oc) got;
  check_runs "ckpt"
    (List.mapi (fun i s -> Printf.sprintf "ckpt snapshot %d %s" i (md5 s)) snaps
    @ [ "ckpt resume " ^ md5 got ])

(* A two-cluster federation with locality routing and autoscaling. *)
let test_fed_golden () =
  let ts = Lazy.force tenants in
  let apps = Traffic.apps ~seed:11 ts in
  let requests =
    Traffic.regional_requests ~seed:11 ~horizon:0.4
      [ Traffic.region "east"; Traffic.region ~scale:2.0 "west" ]
      ts
  in
  let opts =
    { Fed.default_opts with
      Fed.fd_route = Fed.Locality;
      fd_autoscale =
        Some { Fed.default_autoscale with Fed.as_interval_s = 0.05 };
      fd_seed = 11 }
  in
  let clusters =
    [ Fed.cluster ~devices:2 ~weight:1.0 ~rtt_s:[| 0.0; 0.002 |] "east";
      Fed.cluster ~devices:2 ~weight:1.0 ~rtt_s:[| 0.002; 0.0 |] "west" ]
  in
  let buf = Buffer.create 4096 in
  let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
  let oc =
    Fed.serve ~opts ~trace ~clusters
      (Array.to_list (Array.map Fed.tenant apps))
      requests
  in
  T.flush trace;
  check_runs "fed"
    [ Printf.sprintf "fed report=%s jsonl=%s"
        (md5 (Fed.report_to_string oc.Fed.fo_report))
        (md5 (Buffer.contents buf)) ]

let test_chaos_golden () =
  let c = Chaos.run ~seeds:20 () in
  Alcotest.(check (list string)) "no invariant violations" []
    c.Chaos.cg_violations;
  check_runs "chaos"
    (List.map
       (fun r -> Printf.sprintf "chaos %d %s" r.Chaos.sr_seed r.Chaos.sr_digest)
       c.Chaos.cg_reports)

let test_fedchaos_golden () =
  let c = Chaos.run_fed ~seeds:10 () in
  Alcotest.(check (list string)) "no invariant violations" []
    c.Chaos.fc_violations;
  check_runs "fedchaos"
    (List.map
       (fun r ->
         Printf.sprintf "fedchaos %d %s" r.Chaos.fr_seed r.Chaos.fr_digest)
       c.Chaos.fc_reports)

let () =
  Alcotest.run "heap"
    [ ( "pheap",
        [ QCheck_alcotest.to_alcotest prop_pheap_vs_list;
          Alcotest.test_case "handle surgery and edge cases" `Quick
            test_heap_unit ] );
      ("deque", [ QCheck_alcotest.to_alcotest prop_dq_model ]);
      ( "ties",
        [ Alcotest.test_case "simultaneous events pinned by golden" `Quick
            test_tie_golden ] );
      ( "fleet-digest-golden",
        [ Alcotest.test_case "policies x SLO x faults" `Quick
            test_sweep_golden;
          Alcotest.test_case "checkpoints and resume" `Quick test_ckpt_golden;
          Alcotest.test_case "federation run" `Quick test_fed_golden;
          Alcotest.test_case "chaos seeds 0-19" `Quick test_chaos_golden;
          Alcotest.test_case "federation chaos seeds 0-9" `Quick
            test_fedchaos_golden ] ) ]
