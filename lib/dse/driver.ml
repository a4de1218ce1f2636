module Space = S2fa_tuner.Space
module Tuner = S2fa_tuner.Tuner
module Resultdb = S2fa_tuner.Resultdb
module Rng = S2fa_util.Rng
module Pheap = S2fa_util.Pheap
module Telemetry = S2fa_telemetry.Telemetry
module Obs = S2fa_obs.Obs
module Fault = S2fa_fault.Fault
module Json = S2fa_telemetry.Telemetry.Json
module Checkpoint = S2fa_telemetry.Checkpoint

type event = {
  ev_minutes : float;
  ev_perf : float;
  ev_feasible : bool;
  ev_partition : int;
  ev_technique : string;
}

type run_result = {
  rr_events : event list;
  rr_best : (Space.cfg * float) option;
  rr_minutes : float;
  rr_evals : int;
  rr_cache : Resultdb.snapshot option;
  rr_fault : Fault.stats option;
}

(* ---------- telemetry plumbing (read-only observation) ---------- *)

let constr_string = function
  | Partition.CLe (p, v) -> Printf.sprintf "%s<=%d" p v
  | Partition.CGt (p, v) -> Printf.sprintf "%s>%d" p v
  | Partition.CIn (p, vs) ->
    Printf.sprintf "%s in {%s}" p (String.concat "," vs)

let constrs_string = function
  | [] -> "(whole space)"
  | cs -> String.concat " & " (List.map constr_string cs)

(* Offline rule-fitting probes run outside any tuner, so the database
   memoizes them here. They carry [partition = -1] so replay can tell
   them apart from search evaluations (they consume no DSE wall-clock,
   exactly as the paper's ahead-of-time training data). *)
let traced_objective trace db objective =
  let wrapped =
    match db with None -> objective | Some db -> Resultdb.memoize db objective
  in
  match trace with
  | None -> wrapped
  | Some tr ->
    fun cfg ->
      (* Whether this eval was a cache hit falls out of the hit-counter
         delta across the memoized call — no second key canonicalization
         just to ask the question. *)
      let hits () =
        match db with
        | Some db -> (Resultdb.snapshot db).Resultdb.sn_hits
        | None -> 0
      in
      let hits_before = hits () in
      let r = wrapped cfg in
      let hit = hits () > hits_before in
      Telemetry.emit tr
        (Telemetry.Eval_done
           { cfg_key = Space.key cfg;
             quality = r.Tuner.e_perf;
             feasible = r.Tuner.e_feasible;
             eval_minutes = r.Tuner.e_minutes;
             cache_hit = hit;
             partition = -1;
             technique = "";
             improved = false });
      r

(* Emit [kind] stamped [clock], when the run is traced. *)
let emit trace ~clock kind =
  match trace with
  | None -> ()
  | Some tr ->
    Telemetry.set_clock tr clock;
    Telemetry.emit tr kind

let set_partition trace p =
  Option.iter (fun tr -> Telemetry.set_partition tr p) trace

(* Shared epilogue: [run_end], then flush every sink. *)
let trace_finish trace ~minutes ~evals ~best =
  match trace with
  | None -> ()
  | Some tr ->
    Telemetry.set_partition tr (-1);
    Telemetry.set_clock tr minutes;
    Telemetry.emit tr
      (Telemetry.Run_end
         { minutes;
           evals;
           best = (match best with Some (_, b) -> b | None -> infinity) });
    Telemetry.flush tr

(* ---------- fault-injection plumbing ---------- *)

(* The search objective behind the injector's retry/backoff/quarantine
   policy. The wrapper stamps the config key and the tracer's current
   partition context onto the injector's retry-loop events; with no
   injector (or a zero-rate one, which makes no RNG draws) it is the
   raw objective, which is what proves fault-free ≡ no injector. *)
let fault_objective faults trace objective =
  match faults with
  | None -> objective
  | Some inj ->
    fun cfg ->
      let on_event =
        match trace with
        | None -> fun _ -> ()
        | Some tr ->
          let cfg_key = Space.key cfg in
          let partition = Telemetry.partition tr in
          fun (e : Fault.event) ->
            Telemetry.emit tr
              (match e with
              | Fault.Injected i ->
                Telemetry.Fault_injected
                  { cfg_key;
                    partition;
                    failure = Fault.failure_name i.failure;
                    lost_minutes = i.lost_minutes;
                    attempt = i.attempt }
              | Fault.Retried r ->
                Telemetry.Eval_retry
                  { cfg_key;
                    partition;
                    attempt = r.attempt;
                    backoff_minutes = r.backoff_minutes }
              | Fault.Gave_up g ->
                Telemetry.Quarantined
                  { cfg_key;
                    partition;
                    attempts = g.attempts;
                    lost_minutes = g.lost_minutes })
      in
      Fault.harden inj ~on_event objective cfg

(* ---------- checkpointing ---------- *)

type ck_tuner = {
  ct_partition : int;
  ct_evaluated : int;
  ct_best : float;
  ct_entropy : float;
}

type ck = {
  ck_flow : string;
  ck_every : float;
  ck_minutes : float;
  ck_evals : int;
  ck_best : (string * float) option;
  ck_core_time : float array;
  ck_db : (string * Resultdb.eval_result) list;
  ck_tuners : ck_tuner list;
  ck_meta : (string * string) list;
}

(* A snapshot interval the stepper can use, or a time limit a run can
   reach: at zero or below the next boundary never moves past the clock
   and a run finds nothing, and at NaN or infinity the clock never
   reaches it. *)
let finite_positive x = x > 0.0 && Float.is_finite x

(* The snapshot reuses the trace encoding's float contract (17
   significant digits, quoted non-finite values), so serializing the
   regenerated state of a deterministic re-run reproduces the stored
   file byte for byte — which is exactly how resume validation works. *)
let ck_lines ck =
  let open Json in
  let header =
    [ ("flow", Str ck.ck_flow); ("every", Num ck.ck_every);
      ("min", Num ck.ck_minutes); ("evals", Int ck.ck_evals) ]
    @ (match ck.ck_best with
      | None -> []
      | Some (k, q) -> [ ("best", Str k); ("bestq", Num q) ])
    @ [ ("cores", Nums (Array.to_list ck.ck_core_time)) ]
  in
  let db (key, (r : Resultdb.eval_result)) =
    ( "db",
      [ ("cfg", Str key); ("q", Num r.e_perf); ("feas", Bool r.e_feasible);
        ("emin", Num r.e_minutes) ] )
  in
  let tuner t =
    ( "tuner",
      [ ("part", Int t.ct_partition); ("evals", Int t.ct_evaluated);
        ("best", Num t.ct_best); ("entropy", Num t.ct_entropy) ] )
  in
  Checkpoint.frame ~header:("header", header) ~meta:ck.ck_meta
    (List.map db ck.ck_db @ List.map tuner ck.ck_tuners)

(* Decode a snapshot whose framing [Checkpoint] has checked; a bad
   field names its line. *)
let ck_of_checkpoint (c : Checkpoint.t) =
  Json.located ~file:c.c_file @@ fun () ->
  let get = Json.get_at in
  let db, tuners =
    List.partition_map
      (fun (n, fields) ->
        let str = get n Json.get_str fields
        and num = get n Json.get_float fields
        and cnt = get n Json.get_int fields in
        match str "ck" with
        | "db" ->
          Left
            ( str "cfg",
              { Resultdb.e_perf = num "q";
                e_feasible = get n Json.get_bool fields "feas";
                e_minutes = num "emin" } )
        | "tuner" ->
          Right
            { ct_partition = cnt "part";
              ct_evaluated = cnt "evals";
              ct_best = num "best";
              ct_entropy = num "entropy" }
        | k -> Json.bad_line n "unknown checkpoint line %S" k)
      c.c_body
  in
  let n, header = c.c_header in
  let str = get n Json.get_str header and num = get n Json.get_float header in
  if not (finite_positive (num "every")) then
    Json.bad_line n "checkpoint interval must be positive";
  { ck_flow = str "flow";
    ck_every = num "every";
    ck_minutes = num "min";
    ck_evals = get n Json.get_int header "evals";
    ck_best =
      (match Json.find header "best" with
      | Some (Json.Jstr k) -> Some (k, num "bestq")
      | _ -> None);
    ck_core_time = Array.of_list (get n Json.get_arr header "cores");
    ck_db = db;
    ck_tuners = tuners;
    ck_meta = c.c_meta }

let ck_of_lines lines =
  Result.bind
    (Checkpoint.of_lines ~kinds:[ "header" ] ~file:"checkpoint" lines)
    ck_of_checkpoint

let load_checkpoint path =
  Result.bind (Checkpoint.read ~kinds:[ "header" ] path) ck_of_checkpoint

type ck_opts = {
  ck_path : string option;
  ck_every : float;
  ck_meta : (string * string) list;
  ck_hook : (ck -> unit) option;
}

let checkpoint_to ?(meta = []) ~every path =
  { ck_path = Some path; ck_every = every; ck_meta = meta; ck_hook = None }

let best_curve rr =
  let sorted =
    List.sort (fun a b -> compare a.ev_minutes b.ev_minutes) rr.rr_events
  in
  let _, rev =
    List.fold_left
      (fun (best, acc) ev ->
        if ev.ev_feasible && ev.ev_perf < best then
          (ev.ev_perf, (ev.ev_minutes, ev.ev_perf) :: acc)
        else (best, acc))
      (infinity, []) sorted
  in
  List.rev rev

let best_at rr minute =
  List.fold_left
    (fun best ev ->
      if ev.ev_feasible && ev.ev_minutes <= minute && ev.ev_perf < best then
        ev.ev_perf
      else best)
    infinity rr.rr_events

type s2fa_opts = {
  so_cores : int;
  so_time_limit : float;
  so_samples : int;
  so_partition : bool;
  so_seed_mode : [ `Both | `Area_only | `None ];
  so_stop : [ `Entropy | `Trivial of int | `Time_only ];
}

let default_s2fa_opts =
  { so_cores = 8;
    so_time_limit = 240.0;
    so_samples = 96;
    so_partition = true;
    so_seed_mode = `Both;
    so_stop = `Entropy }

(* The paper's fixed DSE constants. *)
let entropy_theta = 0.02     (* Eq. 2: entropy change threshold θ *)
let entropy_consecutive = 5  (* Eq. 2: consecutive samples within θ *)
let entropy_min_evals = 14   (* Eq. 2: evaluations before it may fire *)
let tree_depth = 3           (* Section 4.3.1: partition-tree depth *)

(* Section 4.3.1: the set-up samples DATuner's dynamic partitioning
   spends on every partition before reallocating cores. *)
let setup_evals = 4

(* Offline "training data": quick estimator probes used to fit the
   partitioning rules. The paper builds these rules from training
   applications ahead of time, so they do not consume DSE wall-clock. *)
let offline_samples dspace objective rng n =
  List.init n (fun _ ->
      let cfg = Space.random_cfg rng dspace.Dspace.ds_space in
      let r = objective cfg in
      let lat =
        if r.Tuner.e_feasible then log r.Tuner.e_perf
        else 10.0 (* a large, finite label for the infeasible region *)
      in
      { Partition.s_cfg = cfg; s_latency = lat })

let rule_sets dspace =
  (* Methodology 1: factors grouped by loop level — pipeline modes first,
     because "flatten" invalidates every factor below it (Impediment 2).
     Methodology 2: the RDD-operator (task) loop's factors. *)
  let task = dspace.Dspace.ds_task_loop in
  let pipe_params =
    List.filter_map
      (fun id -> if id = task then None else Some (Dspace.pipe_name id))
      dspace.Dspace.ds_loop_ids
  in
  let task_params =
    [ Dspace.par_name task; Dspace.pipe_name task; Dspace.tile_name task ]
  in
  let inner_params =
    List.concat_map
      (fun id -> [ Dspace.par_name id; Dspace.pipe_name id ])
      dspace.Dspace.ds_inner_ids
  in
  [ pipe_params; task_params; inner_params; [] ]

(* ---------- the run core ---------- *)

(* Everything the flows share lives here, once: the prologue and
   epilogue, the free-core pool and the per-evaluation record. The flows
   differ only in how work reaches the cores, so none of this code asks
   which flow is running — a flow that needs different handling keeps it
   in its own scheduler below. *)

(* Per-core virtual clocks and alive flags, plus one heap entry per
   surviving core keyed (clock, index): the minimum is the core that
   frees up first, the lowest index on ties. A monomorphic comparator
   keeps the sift path off polymorphic [Stdlib.compare]. *)
let core_cmp (t1, c1) (t2, c2) =
  let c = Float.compare t1 t2 in
  if c <> 0 then c else Int.compare c1 c2

type pool = {
  clock : float array;
  alive : bool array;
  free : (float * int, int) Pheap.t;
  slot : (float * int, int) Pheap.handle option array;
}

let pool_create n =
  let free = Pheap.create ~cmp:core_cmp () in
  { clock = Array.make n 0.0;
    alive = Array.make n true;
    free;
    slot = Array.init n (fun i -> Some (Pheap.insert free (0.0, i) i)) }

(* Re-key core [i] after its clock moved, or withdraw it once dead. *)
let sync pool i =
  match pool.slot.(i) with
  | None -> ()
  | Some h when pool.alive.(i) ->
    Pheap.update pool.free h (pool.clock.(i), i)
  | Some h ->
    Pheap.remove pool.free h;
    pool.slot.(i) <- None

(* The surviving core that frees up first; -1 once every core is gone. *)
let next_free pool =
  match Pheap.peek pool.free with Some ((_, i), _) -> i | None -> -1

let survivors pool = Pheap.length pool.free

type run = {
  flow : string;
  trace : Telemetry.t option;
  faults : Fault.t option;
  db : Resultdb.t option;
  search : Space.cfg -> Tuner.eval_result;
      (* The search-phase objective, behind the fault injector. *)
  pool : pool;
  clocks : unit -> float array;
      (* The core clocks a snapshot records and the finish time is read
         from. *)
  checkpoint : ck_opts option;
  mutable ck_next : float;
  mutable events : event list;
  mutable evals : int;
  mutable best : (Space.cfg * float) option;
  mutable tuners : (int * Tuner.t) list;  (* By partition, for snapshots. *)
}

(* A tuner searching the run's objective over [space], registered as
   partition [idx]. *)
let new_tuner run idx ~seeds space rng =
  let t =
    Tuner.create ~seeds ?db:run.db ?trace:run.trace space run.search rng
  in
  run.tuners <- (idx, t) :: run.tuners;
  t

(* With a database, a tuner that has proposed its whole (sub)space would
   only take free duplicate steps: the schedulers stop it rather than
   spin on 0-minute hits. *)
let stuck run tuner = Option.is_some run.db && Tuner.exhausted tuner

(* Offline rule fitting (when [sample]) and the static partition tree
   (when [split]; otherwise the whole space is one partition). The
   probes charged the ambient profiler clock; the search phase starts at
   virtual zero. *)
let fit_partitions run opts dspace objective rng ~sample ~split =
  let samples =
    if sample then
      Obs.span "dse.offline" (fun () ->
          offline_samples dspace (traced_objective run.trace run.db objective)
            (Rng.split rng) opts.so_samples)
    else []
  in
  Obs.set_clock 0.0;
  let partitions =
    if split then
      Obs.span "dse.fit" (fun () ->
          Partition.build ~depth:tree_depth ~rule_params:(rule_sets dspace)
            dspace.Dspace.ds_space samples)
    else [ { Partition.p_constrs = []; p_space = dspace.Dspace.ds_space } ]
  in
  (samples, partitions)

(* The first boundary (multiple of [every]) past [now], in O(1) however
   small [every] is; one ulp past [now] where the multiples are denser
   than the doubles. *)
let next_boundary every now =
  let b = every *. (Float.floor (now /. every) +. 1.0) in
  if b > now && Float.is_finite b then b else Float.succ now

(* Fed the clock after every evaluation (every batch, in vanilla), the
   stepper snapshots whenever a [ck_every] boundary is crossed. The
   boundary test only looks at the event stream, which prefix-
   deterministic runs share, so a resumed run regenerates every
   snapshot of the original bit for bit. *)
let ck_step run now =
  match run.checkpoint with
  | Some c when now >= run.ck_next ->
    run.ck_next <- next_boundary c.ck_every now;
    let ck =
      { ck_flow = run.flow;
        ck_every = c.ck_every;
        ck_minutes = now;
        ck_evals = run.evals;
        ck_best = Option.map (fun (cfg, q) -> (Space.key cfg, q)) run.best;
        ck_core_time = run.clocks ();
        ck_db = (match run.db with Some d -> Resultdb.to_list d | None -> []);
        ck_tuners =
          List.map
            (fun (idx, t) ->
              { ct_partition = idx;
                ct_evaluated = Tuner.evaluated t;
                ct_best =
                  (match Tuner.best t with Some (_, q) -> q | None -> infinity);
                ct_entropy = Tuner.entropy t })
            run.tuners
          |> List.sort (fun a b -> compare a.ct_partition b.ct_partition);
        ck_meta = c.ck_meta }
    in
    Option.iter (fun p -> Checkpoint.write p (ck_lines ck)) c.ck_path;
    Option.iter (fun h -> h ck) c.ck_hook;
    emit run.trace ~clock:now
      (Telemetry.Checkpoint_written
         { path = Option.value ~default:"" c.ck_path;
           minutes = now;
           evals = run.evals })
  | _ -> ()

(* Mark [n] cores dead: [first] (the core that ran the faulted
   evaluation; -1 when no single core did), then the highest-indexed
   survivors — a deterministic choice. *)
let kill run ~clock ~first ~partition n =
  let pool = run.pool in
  let killed = ref 0 in
  let kill_one c part =
    if c >= 0 && pool.alive.(c) then begin
      pool.alive.(c) <- false;
      sync pool c;
      incr killed;
      emit run.trace ~clock (Telemetry.Core_lost { core = c; partition = part })
    end
  in
  if n > 0 then kill_one first partition;
  let c = ref (Array.length pool.alive - 1) in
  while !killed < n && !c >= 0 do
    if pool.alive.(!c) then kill_one !c (-1);
    decr c
  done

(* The per-evaluation record: count the evaluation, log its event at
   [clock], trace it and fold it into the global best. *)
let record run ~clock ~partition (o : Tuner.outcome) =
  run.evals <- run.evals + 1;
  run.events <-
    { ev_minutes = clock;
      ev_perf = o.Tuner.o_perf;
      ev_feasible = o.Tuner.o_feasible;
      ev_partition = partition;
      ev_technique = o.Tuner.o_technique }
    :: run.events;
  if Option.is_some run.trace then
    emit run.trace ~clock
      (Telemetry.Eval_done
         { cfg_key = Space.key o.Tuner.o_cfg;
           quality = o.Tuner.o_perf;
           feasible = o.Tuner.o_feasible;
           eval_minutes = o.Tuner.o_minutes;
           cache_hit = o.Tuner.o_cache_hit;
           partition;
           technique = o.Tuner.o_technique;
           improved = o.Tuner.o_improved });
  if o.Tuner.o_feasible then
    match run.best with
    | Some (_, b) when b <= o.Tuner.o_perf -> ()
    | _ -> run.best <- Some (o.Tuner.o_cfg, o.Tuner.o_perf)

(* After work completes at [now]: snapshot if a boundary was crossed,
   then apply the core losses the injector drew meanwhile. *)
let settle run now ~first ~partition =
  ck_step run now;
  match run.faults with
  | None -> ()
  | Some inj ->
    let losses = Fault.take_core_losses inj in
    if losses > 0 then kill run ~clock:now ~first ~partition losses

(* One evaluation by [tuner] on [core], which advances that core's clock
   by the modeled minutes. An injected core loss takes [core] first:
   [run.pool.alive.(core)] tells whether it survived. *)
let step_on run core ~partition tuner =
  let pool = run.pool in
  (match run.trace with
  | None -> ()
  | Some tr ->
    Telemetry.set_partition tr partition;
    Telemetry.set_clock tr pool.clock.(core));
  Obs.set_clock pool.clock.(core);
  let o =
    Obs.span "dse.eval" (fun () ->
        let o = Tuner.step tuner in
        pool.clock.(core) <- pool.clock.(core) +. o.Tuner.o_minutes;
        Obs.set_clock pool.clock.(core);
        o)
  in
  record run ~clock:pool.clock.(core) ~partition o;
  settle run pool.clock.(core) ~first:core ~partition;
  sync pool core;
  o

(* Prologue, [schedule], epilogue. Offline rule-fitting probes model
   ahead-of-time training runs, so they are exempt from fault injection:
   only the search-phase objective is hardened. *)
let with_run ~flow ~cores ~limit ?clocks ?db ?trace ?faults ?checkpoint
    objective schedule =
  if not (finite_positive limit) then
    invalid_arg "time limit must be positive and finite";
  Option.iter
    (fun (c : ck_opts) ->
      if not (finite_positive c.ck_every) then
        invalid_arg "checkpoint interval must be positive")
    checkpoint;
  Obs.span ("dse." ^ flow) @@ fun () ->
  let db_before = Option.map Resultdb.snapshot db in
  Option.iter
    (fun tr ->
      Telemetry.emit tr
        (Telemetry.Run_begin { flow; cores; time_limit = limit }))
    trace;
  let pool = pool_create cores in
  let run =
    { flow;
      trace;
      faults;
      db;
      search = fault_objective faults trace objective;
      pool;
      clocks = Option.value clocks ~default:(fun () -> Array.copy pool.clock);
      checkpoint;
      ck_next =
        (match checkpoint with Some c -> c.ck_every | None -> infinity);
      events = [];
      evals = 0;
      best = None;
      tuners = [] }
  in
  schedule run;
  let rr_minutes =
    Float.min (Array.fold_left Float.max 0.0 (run.clocks ())) limit
  in
  Obs.set_clock rr_minutes;
  trace_finish trace ~minutes:rr_minutes ~evals:run.evals ~best:run.best;
  { rr_events = List.rev run.events;
    rr_best = run.best;
    rr_minutes;
    rr_evals = run.evals;
    rr_cache =
      (match (db, db_before) with
      | Some db, Some s0 -> Some (Resultdb.diff (Resultdb.snapshot db) s0)
      | _ -> None);
    rr_fault = Option.map Fault.stats faults }

(* ---------- the schedulers ---------- *)

let run_s2fa ?(opts = default_s2fa_opts) ?db ?trace ?faults ?checkpoint dspace
    objective rng =
  with_run ~flow:"s2fa" ~cores:opts.so_cores ~limit:opts.so_time_limit ?db
    ?trace ?faults ?checkpoint objective
  @@ fun run ->
  let samples, partitions =
    fit_partitions run opts dspace objective rng
      ~sample:(opts.so_partition || opts.so_seed_mode = `Both)
      ~split:opts.so_partition
  in
  let stop_rule, stop_reason =
    match opts.so_stop with
    | `Entropy ->
      ( Tuner.Entropy_stop
          { theta = entropy_theta;
            consecutive = entropy_consecutive;
            min_evals = entropy_min_evals },
        Telemetry.Stop_entropy )
    | `Trivial k -> (Tuner.Trivial_stop k, Telemetry.Stop_trivial)
    | `Time_only -> (Tuner.No_stop, Telemetry.Stop_time)
  in
  let make_tuner idx part =
    (* The partition's best point among the offline training samples is
       its third seed: the rule-fitting data doubles as a warm start for
       the region (same spirit as Section 4.3.2's per-partition seeds). *)
    let sample_seed =
      List.fold_left
        (fun acc (s : Partition.sample) ->
          let inside =
            List.for_all (Partition.satisfies s.Partition.s_cfg)
              part.Partition.p_constrs
          in
          match acc with
          | Some (_, best) when best <= s.Partition.s_latency -> acc
          | _ ->
            if inside && s.Partition.s_latency < 10.0 then
              Some (s.Partition.s_cfg, s.Partition.s_latency)
            else acc)
        None samples
    in
    let seeds =
      match opts.so_seed_mode with
      | `Both -> (
        Seed.seeds_for dspace part
        @
        match sample_seed with
        | Some (cfg, _) -> [ Partition.project part cfg ]
        | None -> [])
      | `Area_only -> [ Partition.project part (Seed.area_seed dspace) ]
      | `None -> []
    in
    new_tuner run idx ~seeds part.Partition.p_space (Rng.split rng)
  in
  let pool = run.pool in
  (* Run partition [idx] on [core] until it stops or the core dies; a
     failed-over partition brings its tuner along. *)
  let run_partition core idx part resumed =
    Obs.set_clock pool.clock.(core);
    Obs.span "dse.partition" @@ fun () ->
    let tuner =
      match resumed with Some t -> t | None -> make_tuner idx part
    in
    set_partition trace idx;
    if Option.is_some trace then
      emit trace ~clock:pool.clock.(core)
        (Telemetry.Partition_start
           { partition = idx;
             core;
             constrs = constrs_string part.Partition.p_constrs;
             points = Space.cardinality part.Partition.p_space });
    let rec go () =
      if pool.clock.(core) >= opts.so_time_limit then
        `Stop Telemetry.Stop_time
      else if stuck run tuner then `Stop Telemetry.Stop_exhausted
      else begin
        ignore (step_on run core ~partition:idx tuner);
        if not pool.alive.(core) then `Core_lost tuner
        else if Tuner.should_stop tuner stop_rule then `Stop stop_reason
        else go ()
      end
    in
    match go () with
    | `Core_lost _ as lost -> lost
    | `Stop reason ->
      emit trace ~clock:pool.clock.(core)
        (Telemetry.Partition_stop
           { partition = idx; core; reason; evals = Tuner.evaluated tuner });
      set_partition trace (-1);
      `Done
  in
  (* FCFS: whenever a surviving core frees up, it takes the next
     waiting partition; a lost core's partition rejoins the queue and
     is picked up — tuner state intact — by whichever survivor frees
     up first. *)
  let queue = Queue.create () in
  List.iteri (fun i p -> Queue.add (i, p, None) queue) partitions;
  let rec fcfs () =
    if not (Queue.is_empty queue) then
      match next_free pool with
      | -1 -> () (* every core is gone *)
      | core when pool.clock.(core) >= opts.so_time_limit -> ()
      | core -> (
        let idx, part, resumed = Queue.pop queue in
        let tuner =
          Option.map
            (fun (t, from_core) ->
              emit trace ~clock:pool.clock.(core)
                (Telemetry.Failover
                   { partition = idx; from_core; to_core = core });
              t)
            resumed
        in
        match run_partition core idx part tuner with
        | `Done -> fcfs ()
        | `Core_lost t ->
          Queue.add (idx, part, Some (t, core)) queue;
          fcfs ())
  in
  fcfs ()

let run_dynamic ?(opts = default_s2fa_opts) ?db ?trace ?faults ?checkpoint
    dspace objective rng =
  (* Same partition tree as the static flow, but per DATuner: random
     starting points, an on-line sampling phase per partition, then
     greedy core reallocation toward the best-performing partitions. *)
  with_run ~flow:"dynamic" ~cores:opts.so_cores ~limit:opts.so_time_limit ?db
    ?trace ?faults ?checkpoint objective
  @@ fun run ->
  let _, partitions =
    fit_partitions run opts dspace objective rng ~sample:true ~split:true
  in
  let tuners =
    List.mapi
      (fun p part ->
        (* Random seed, not the generated ones. *)
        let seeds = [ Space.random_cfg rng part.Partition.p_space ] in
        new_tuner run p ~seeds part.Partition.p_space (Rng.split rng))
      partitions
    |> Array.of_list
  in
  let n = Array.length tuners in
  let part_best = Array.make n infinity in
  let part_evals = Array.make n 0 in
  let pool = run.pool in
  let step core p =
    let o = step_on run core ~partition:p tuners.(p) in
    part_evals.(p) <- part_evals.(p) + 1;
    if o.Tuner.o_feasible && o.Tuner.o_perf < part_best.(p) then
      part_best.(p) <- o.Tuner.o_perf
  in
  let eligible p = not (stuck run tuners.(p)) in
  (* Phase 1: sampling set-up, round-robin over partitions. *)
  for p = 0 to n - 1 do
    for _ = 1 to setup_evals do
      match next_free pool with
      | -1 -> ()
      | core ->
        if pool.clock.(core) < opts.so_time_limit && eligible p then
          step core p
    done
  done;
  (* Phase 2: greedy reallocation — each freed core works on the
     partition with the best quality so far (ties to the least
     explored). *)
  let rec greedy () =
    match next_free pool with
    | -1 -> ()
    | core when pool.clock.(core) >= opts.so_time_limit -> ()
    | core ->
      let best_p = ref (-1) in
      for p = 0 to n - 1 do
        if
          eligible p
          && (!best_p < 0
             || part_best.(p) < part_best.(!best_p)
             || (part_best.(p) = part_best.(!best_p)
                && part_evals.(p) < part_evals.(!best_p)))
        then best_p := p
      done;
      if !best_p >= 0 then begin
        step core !best_p;
        greedy ()
      end
  in
  greedy ()

let run_vanilla ?(cores = 8) ?(time_limit = 240.0) ?db ?trace ?faults
    ?checkpoint dspace objective rng =
  (* One random starting point, no partitions, no systematic stopping:
     per iteration the surviving cores evaluate the next proposals as
     one batch and a single clock advances by the slowest of them. *)
  let clock = ref 0.0 in
  with_run ~flow:"vanilla" ~cores ~limit:time_limit
    ~clocks:(fun () -> [| !clock |])
    ?db ?trace ?faults ?checkpoint objective
  @@ fun run ->
  let seeds = [ Space.random_cfg rng dspace.Dspace.ds_space ] in
  let tuner = new_tuner run 0 ~seeds dspace.Dspace.ds_space (Rng.split rng) in
  (* The single whole-space tuner is "partition 0" in the trace. *)
  set_partition trace 0;
  (* Core deaths shrink the batch width: each subsequent iteration
     evaluates one proposal per surviving core. *)
  while
    !clock < time_limit && (not (stuck run tuner)) && survivors run.pool > 0
  do
    (match trace with None -> () | Some tr -> Telemetry.set_clock tr !clock);
    Obs.set_clock !clock;
    let batch =
      Obs.span "dse.batch" (fun () ->
          let batch = Tuner.step_batch tuner (survivors run.pool) in
          let slowest =
            List.fold_left (fun m o -> Float.max m o.Tuner.o_minutes) 0.0 batch
          in
          (* Simulated cores run the batch in parallel: the clock moves
             by the slowest member, not the sum the estimator charged. *)
          clock := !clock +. slowest;
          Obs.set_clock !clock;
          batch)
    in
    List.iter (record run ~clock:!clock ~partition:0) batch;
    (* Without per-core clocks the dying core is anonymous; the
       highest-indexed survivors go. *)
    settle run !clock ~first:(-1) ~partition:0
  done

(* ---------- resume ---------- *)

(* Replay-based recovery. Tuner state is closure-laden (technique
   cursors, bandit history) and cannot be serialized faithfully, but it
   does not need to be: the whole stack is deterministic, so re-running
   from the recorded configuration regenerates the crashed run's every
   intermediate state. The stored snapshot then serves as a tamper
   check — when the re-run crosses the snapshot's minute it must
   reproduce the stored body byte for byte, or the caller supplied a
   different seed, option set or fault spec than the original run. By
   the same determinism, the resumed run's final best is bit-identical
   to an uninterrupted run's. *)
let resume_from_checkpoint ?opts ?db ?trace ?faults ?checkpoint
    ?(file = "checkpoint") ~snapshot dspace objective rng =
  let replay =
    Checkpoint.replay ~file
      ~at:(Printf.sprintf "%.1f virtual minutes" snapshot.ck_minutes)
      (ck_lines snapshot)
  in
  let user =
    Option.value checkpoint
      ~default:{ ck_path = None; ck_every = 0.0; ck_meta = []; ck_hook = None }
  in
  let hook ck =
    if ck.ck_minutes = snapshot.ck_minutes then
      Checkpoint.reached replay
        (ck_lines { ck with ck_meta = snapshot.ck_meta });
    Option.iter (fun h -> h ck) user.ck_hook
  in
  let checkpoint =
    { user with
      ck_every = snapshot.ck_every;
      ck_hook = Some hook;
      ck_meta = (if user.ck_meta = [] then snapshot.ck_meta else user.ck_meta) }
  in
  let validated rr = Result.map (fun () -> rr) (Checkpoint.verdict replay) in
  match snapshot.ck_flow with
  | "s2fa" ->
    validated
      (run_s2fa ?opts ?db ?trace ?faults ~checkpoint dspace objective rng)
  | "dynamic" ->
    validated
      (run_dynamic ?opts ?db ?trace ?faults ~checkpoint dspace objective rng)
  | "vanilla" ->
    let o = Option.value ~default:default_s2fa_opts opts in
    validated
      (run_vanilla ~cores:o.so_cores ~time_limit:o.so_time_limit ?db ?trace
         ?faults ~checkpoint dspace objective rng)
  | f -> Error (Printf.sprintf "%s:1: unknown flow %S in checkpoint" file f)
