module Csyntax = S2fa_hlsc.Csyntax
module Canalysis = S2fa_hlsc.Canalysis

type report = {
  r_cycles : float;
  r_ii : float;
  r_freq_mhz : float;
  r_seconds : float;
  r_compute_seconds : float;
  r_xfer_seconds : float;
  r_lut_pct : float;
  r_ff_pct : float;
  r_bram_pct : float;
  r_dsp_pct : float;
  r_feasible : bool;
  r_eval_minutes : float;
}

type totals = {
  mutable lut : float;
  mutable ff : float;
  mutable dsp : float;
  mutable bram : float;
}

let get_pragma_parallel (l : Csyntax.loop) =
  List.fold_left
    (fun acc p -> match p with Csyntax.Parallel f -> f | _ -> acc)
    1 l.Csyntax.lpragmas

let get_pragma_pipeline (l : Csyntax.loop) =
  List.fold_left
    (fun acc p -> match p with Csyntax.Pipeline m -> m | _ -> acc)
    Csyntax.PipeOff l.Csyntax.lpragmas

(* ---------- operation latency / resources from op counts ---------- *)

let mem_count assoc = List.fold_left (fun a (_, n) -> a + n) 0 assoc

(* Latency of executing the direct ops of a body once, sequentially-ish
   (HLS chains independent ops, so scale down by an ILP factor). *)
let ops_latency ~helper_lat (o : Canalysis.op_counts) =
  let open Device in
  let raw =
    (float_of_int o.Canalysis.int_add *. int_add.lat)
    +. (float_of_int o.Canalysis.int_mul *. int_mul.lat)
    +. (float_of_int o.Canalysis.int_div *. int_div.lat)
    +. (float_of_int o.Canalysis.fp_add *. fp_add.lat)
    +. (float_of_int o.Canalysis.fp_mul *. fp_mul.lat)
    +. (float_of_int o.Canalysis.fp_div *. fp_div.lat)
    +. (float_of_int o.Canalysis.compares *. cmp.lat)
    +. (float_of_int (mem_count o.Canalysis.mem_reads) *. mem_access.lat)
    +. (float_of_int (mem_count o.Canalysis.mem_writes) *. mem_access.lat)
    +. (float_of_int o.Canalysis.other *. 1.0)
    +. List.fold_left
         (fun acc (f, n) -> acc +. (float_of_int n *. helper_lat f))
         0.0 o.Canalysis.math_calls
  in
  (* instruction-level parallelism within a basic block *)
  max 1.0 (raw /. 1.8)

let ops_resources ~helper_res ~shared (o : Canalysis.op_counts) (t : totals)
    ~copies =
  let open Device in
  let add n (m : op_model) =
    (* When the loop is not pipelined/unrolled, one functional unit per
       op kind is shared across the body ([shared]); otherwise each op
       instance gets its own hardware. *)
    let units =
      if shared then (if n > 0 then 1.0 else 0.0) else float_of_int n
    in
    t.lut <- t.lut +. (units *. m.lut *. copies);
    t.ff <- t.ff +. (units *. m.ff *. copies);
    t.dsp <- t.dsp +. (units *. m.dsp *. copies)
  in
  add o.Canalysis.int_add int_add;
  add o.Canalysis.int_mul int_mul;
  add o.Canalysis.int_div int_div;
  add o.Canalysis.fp_add fp_add;
  add o.Canalysis.fp_mul fp_mul;
  add o.Canalysis.fp_div fp_div;
  add o.Canalysis.compares cmp;
  add (mem_count o.Canalysis.mem_reads + mem_count o.Canalysis.mem_writes)
    mem_access;
  List.iter
    (fun (f, n) ->
      let m = helper_res f in
      let units = if shared then 1.0 else float_of_int n in
      t.lut <- t.lut +. (units *. m.lut *. copies);
      t.ff <- t.ff +. (units *. m.ff *. copies);
      t.dsp <- t.dsp +. (units *. m.dsp *. copies))
    o.Canalysis.math_calls

(* ---------- estimation ---------- *)

let run ?(device = Device.vu9p) ?(nominal_trip = 64) summaries ~tasks
    ~buffer_elems =
  let summary =
    match List.assoc_opt "kernel" summaries with
    | Some s -> s
    | None -> invalid_arg "estimate: program has no kernel function"
  in
  (* Helper functions: flat sequential cost, reused as a shared unit. *)
  let helper_summaries =
    List.filter (fun (name, _) -> not (String.equal name "kernel")) summaries
  in
  let rec helper_lat name =
    match List.assoc_opt name helper_summaries with
    | None -> (Device.math_op name).Device.lat
    | Some s ->
      let body =
        List.fold_left
          (fun acc (li : Canalysis.loop_info) ->
            acc
            +. float_of_int (Canalysis.trip_or nominal_trip li)
               *. ops_latency ~helper_lat li.Canalysis.li_ops)
          (ops_latency ~helper_lat s.Canalysis.top_ops)
          s.Canalysis.loops
      in
      body
  and helper_res name : Device.op_model =
    match List.assoc_opt name helper_summaries with
    | None -> Device.math_op name
    | Some s ->
      let t = { lut = 0.0; ff = 0.0; dsp = 0.0; bram = 0.0 } in
      ops_resources ~helper_res ~shared:false s.Canalysis.top_ops t
        ~copies:1.0;
      List.iter
        (fun (li : Canalysis.loop_info) ->
          ops_resources ~helper_res ~shared:false li.Canalysis.li_ops t
            ~copies:1.0)
        s.Canalysis.loops;
      { Device.lat = helper_lat name; dsp = t.dsp; lut = t.lut; ff = t.ff }
  in
  let info_of id =
    match Canalysis.find_loop summary id with
    | Some li -> li
    | None -> invalid_arg "estimate: unknown loop id"
  in
  let roots =
    List.filter
      (fun (li : Canalysis.loop_info) -> li.Canalysis.li_ancestors = [])
      summary.Canalysis.loops
  in
  (* The task loop is the outermost loop: its unknown bound is N. *)
  let task_loop_ids =
    List.map (fun (li : Canalysis.loop_info) -> li.Canalysis.li_loop.Csyntax.lid) roots
  in
  let trip_of (li : Canalysis.loop_info) =
    match li.Canalysis.li_trip with
    | Some t -> t
    | None ->
      if List.mem li.Canalysis.li_loop.Csyntax.lid task_loop_ids then tasks
      else nominal_trip
  in
  let totals = { lut = 0.0; ff = 0.0; dsp = 0.0; bram = 0.0 } in
  let worst_ii = ref 1.0 in
  let max_unroll = ref 1 in
  let max_copies = ref 1.0 in
  let flatten_explosion = ref false in
  (* Accesses per buffer per flattened iteration — for the interface
     bandwidth part of ResMII. *)
  let bw_of buffer =
    let declared =
      List.find_map
        (fun (b, _, bw) -> if String.equal b buffer then bw else None)
        summary.Canalysis.buffers
    in
    Option.value ~default:32 declared
  in
  let is_iface name =
    List.exists (fun (b, _, _) -> String.equal b name) summary.Canalysis.buffers
  in
  let res_mii ~unroll (o : Canalysis.op_counts) =
    (* Per local array: 2 ports per bank, banks scale with the unroll
       (array partitioning follows the parallel factor). Per interface
       buffer: elements per cycle limited by the port bit-width. *)
    let per_buffer =
      List.map
        (fun (name, n) ->
          let accesses = float_of_int (n * unroll) in
          if is_iface name then begin
            let elem_bits =
              match
                List.find_opt (fun (b, _, _) -> String.equal b name)
                  summary.Canalysis.buffers
              with
              | Some (_, t, _) -> Csyntax.ty_bits t
              | None -> 32
            in
            let epc = max 1 (bw_of name / max 1 elem_bits) in
            accesses /. float_of_int epc
          end
          else accesses /. (2.0 *. float_of_int unroll))
        (List.fold_left
           (fun acc (n, c) ->
             let cur = Option.value ~default:0 (List.assoc_opt n acc) in
             (n, cur + c) :: List.remove_assoc n acc)
           o.Canalysis.mem_reads o.Canalysis.mem_writes)
    in
    List.fold_left max 1.0 per_buffer
  in
  let rec_mii (li : Canalysis.loop_info) =
    match li.Canalysis.li_dep with
    | Canalysis.NoDep -> 1.0
    | Canalysis.ScalarRec (_, chain) -> 1.0 +. (6.0 *. float_of_int chain)
    | Canalysis.ArrayRec _ -> 5.0
  in
  (* Fully-unrolled (flattened) work and resource replication. *)
  let rec flat_work (li : Canalysis.loop_info) =
    let trip = float_of_int (trip_of li) in
    let own = ops_latency ~helper_lat li.Canalysis.li_ops in
    let subs =
      List.fold_left
        (fun acc c -> acc +. flat_work (info_of c))
        0.0 li.Canalysis.li_children
    in
    trip *. (own +. subs)
  in
  let rec flat_accesses (li : Canalysis.loop_info) =
    let trip = trip_of li in
    let own =
      mem_count li.Canalysis.li_ops.Canalysis.mem_reads
      + mem_count li.Canalysis.li_ops.Canalysis.mem_writes
    in
    trip * (own + List.fold_left (fun a c -> a + flat_accesses (info_of c)) 0
                    li.Canalysis.li_children)
  in
  let rec flat_resources (li : Canalysis.loop_info) ~copies =
    (* Flattened loops replicate their body hardware trip times, damped:
       HLS still shares some units. *)
    let trip = float_of_int (trip_of li) in
    let repl = copies *. (trip ** 0.85) in
    ops_resources ~helper_res ~shared:false li.Canalysis.li_ops totals
      ~copies:repl;
    List.iter
      (fun c -> flat_resources (info_of c) ~copies:repl)
      li.Canalysis.li_children
  in
  let rec cycles (li : Canalysis.loop_info) ~copies =
    let trip = trip_of li in
    let l = li.Canalysis.li_loop in
    let p = min (get_pragma_parallel l) (max 1 trip) in
    if p > !max_unroll then max_unroll := p;
    let iters = float_of_int ((trip + p - 1) / p) in
    let direct = ops_latency ~helper_lat li.Canalysis.li_ops in
    let children = List.map info_of li.Canalysis.li_children in
    let self_copies = copies *. float_of_int p in
    if self_copies > !max_copies then max_copies := self_copies;
    match get_pragma_pipeline l with
    | Csyntax.PipeFlatten ->
      (* Flattening fully unrolls every sub-loop: beyond ~512 unrolled
         body copies the synthesis blows up (SDx fails or times out). *)
      let descendant_trips =
        List.fold_left
          (fun acc c ->
            let rec total (x : Canalysis.loop_info) =
              float_of_int (trip_of x)
              *. List.fold_left
                   (fun a cc -> a *. total (info_of cc))
                   1.0 x.Canalysis.li_children
            in
            acc *. total c)
          1.0 children
      in
      if descendant_trips > 256.0 then flatten_explosion := true;
      let body_work =
        direct
        +. List.fold_left (fun acc c -> acc +. flat_work c) 0.0 children
      in
      let accesses =
        mem_count li.Canalysis.li_ops.Canalysis.mem_reads
        + mem_count li.Canalysis.li_ops.Canalysis.mem_writes
        + List.fold_left (fun a c -> a + flat_accesses c) 0 children
      in
      (* After flattening, local arrays are heavily partitioned: assume
         8-way banks times the parallel factor. *)
      (* Merlin's tree reduction: a fully unrolled associative integer
         accumulation is restructured into a balanced adder tree, hiding
         the recurrence. Floating accumulations are not reassociated
         (HLS preserves FP semantics), which is what pins LR at II 13. *)
      let rec_ii =
        match li.Canalysis.li_dep with
        | Canalysis.ScalarRec (_, chain) when chain <= 1 -> 1.0
        | _ -> rec_mii li
      in
      let ii =
        Float.max rec_ii
          (float_of_int (accesses * p) /. (16.0 *. float_of_int p))
      in
      let ii = Float.max 1.0 ii in
      if ii > !worst_ii then worst_ii := ii;
      ops_resources ~helper_res ~shared:false li.Canalysis.li_ops totals
        ~copies:self_copies;
      List.iter (fun c -> flat_resources c ~copies:self_copies) children;
      totals.lut <- totals.lut +. (150.0 *. copies);
      totals.ff <- totals.ff +. (150.0 *. copies);
      Float.min body_work 600.0 +. ((iters -. 1.0) *. ii)
    | Csyntax.PipeOn ->
      ops_resources ~helper_res ~shared:false li.Canalysis.li_ops totals
        ~copies:self_copies;
      totals.lut <- totals.lut +. (150.0 *. copies);
      totals.ff <- totals.ff +. (200.0 *. copies);
      if children = [] then begin
        let ii = Float.max (rec_mii li) (res_mii ~unroll:p li.Canalysis.li_ops) in
        let ii = Float.max 1.0 ii in
        if ii > !worst_ii then worst_ii := ii;
        direct +. ((iters -. 1.0) *. ii)
      end
      else begin
        (* Coarse-grained pipelining across the child loops: stages
           overlap across successive iterations. *)
        let child_cycles =
          List.map (fun c -> cycles c ~copies:self_copies) children
        in
        let stage = List.fold_left Float.max direct child_cycles in
        let fill = List.fold_left ( +. ) 0.0 child_cycles in
        fill +. ((iters -. 1.0) *. stage)
      end
    | Csyntax.PipeOff ->
      ops_resources ~helper_res ~shared:(p = 1) li.Canalysis.li_ops totals
        ~copies:self_copies;
      (* Sharing functional units across the body costs multiplexing
         logic proportional to the number of sharers. *)
      let body_ops = float_of_int (Canalysis.total_ops li.Canalysis.li_ops) in
      totals.lut <- totals.lut +. (120.0 *. copies) +. (35.0 *. body_ops *. self_copies);
      totals.ff <- totals.ff +. (120.0 *. copies) +. (20.0 *. body_ops *. self_copies);
      let child_cycles =
        List.fold_left
          (fun acc c -> acc +. cycles c ~copies:self_copies)
          0.0 children
      in
      iters *. (direct +. child_cycles +. 4.0)
  in
  let compute_cycles =
    ops_latency ~helper_lat summary.Canalysis.top_ops
    +. List.fold_left (fun acc r -> acc +. cycles r ~copies:1.0) 0.0 roots
  in
  (* ---------- BRAM ---------- *)
  let arr_partition = float_of_int (min !max_unroll 64) in
  List.iter
    (fun (_, elem, n) ->
      let bits = float_of_int (n * Csyntax.ty_bits elem) in
      let banks = Float.max 1.0 (ceil (bits /. 18432.0)) in
      totals.bram <- totals.bram +. Float.max arr_partition banks)
    summary.Canalysis.local_arrays;
  (* Interface buffers: AXI line buffers scale with bit-width, plus
     on-chip staging of one task tile. *)
  let task_tile =
    List.fold_left
      (fun acc (li : Canalysis.loop_info) ->
        List.fold_left
          (fun acc p -> match p with Csyntax.Tile f -> max acc f | _ -> acc)
          acc li.Canalysis.li_loop.Csyntax.lpragmas)
      1 roots
  in
  List.iter
    (fun (name, t, _) ->
      let bw = bw_of name in
      let line = 2.0 *. Float.max 1.0 (float_of_int bw /. 36.0) in
      let per_task =
        Option.value ~default:1 (List.assoc_opt name buffer_elems)
      in
      let staged_bits =
        float_of_int (task_tile * per_task * Csyntax.ty_bits t)
      in
      totals.bram <- totals.bram +. line +. ceil (staged_bits /. 18432.0))
    summary.Canalysis.buffers;
  (* Control/shell baseline. *)
  totals.lut <- totals.lut +. (0.03 *. float_of_int device.Device.luts);
  totals.ff <- totals.ff +. (0.02 *. float_of_int device.Device.ffs);
  totals.bram <- totals.bram +. (0.04 *. float_of_int device.Device.bram18);
  let lut_pct = totals.lut /. float_of_int device.Device.luts in
  let ff_pct = totals.ff /. float_of_int device.Device.ffs in
  let bram_pct = totals.bram /. float_of_int device.Device.bram18 in
  let dsp_pct = totals.dsp /. float_of_int device.Device.dsps in
  let util_max =
    List.fold_left Float.max 0.0 [ lut_pct; ff_pct; bram_pct; dsp_pct ]
  in
  let feasible =
    util_max <= device.Device.usable_frac +. 1e-9
    && !max_copies <= 256.0 (* beyond this, place-and-route never closes *)
    && not !flatten_explosion
  in
  (* ---------- frequency ---------- *)
  let freq =
    let base = device.Device.base_mhz in
    let congestion =
      if util_max <= 0.55 then 0.0 else (util_max -. 0.55) *. 600.0
    in
    let routing =
      if !max_unroll > 64 then
        20.0 *. (log (float_of_int !max_unroll /. 64.0) /. log 2.0)
      else 0.0
    in
    Float.max 100.0 (base -. congestion -. routing)
  in
  (* Round to the 10 MHz steps typical of place-and-route reports. *)
  let freq = Float.round (freq /. 10.0) *. 10.0 in
  (* ---------- transfer ---------- *)
  let bytes =
    List.fold_left
      (fun acc (name, t, _) ->
        let per_task =
          Option.value ~default:1 (List.assoc_opt name buffer_elems)
        in
        acc
        +. float_of_int
             (tasks * per_task * max 1 (Csyntax.ty_bits t / 8)))
      0.0 summary.Canalysis.buffers
  in
  let min_bw =
    List.fold_left
      (fun acc (name, _, _) -> min acc (bw_of name))
      512 summary.Canalysis.buffers
  in
  let bw_eff = Float.min 1.0 (float_of_int min_bw /. 512.0) in
  (* Burst efficiency: staging [task_tile] tasks on-chip amortizes the
     per-burst latency (~512 B equivalent) over longer transfers. *)
  let burst_eff =
    let avg_task_bytes =
      let n = max 1 (List.length summary.Canalysis.buffers) in
      bytes /. float_of_int (max 1 tasks) /. float_of_int n
    in
    let burst = float_of_int task_tile *. Float.max 1.0 avg_task_bytes in
    burst /. (burst +. 512.0)
  in
  let xfer_seconds =
    bytes
    /. (device.Device.hbm_gbps *. 1e9 *. Float.max 0.05 bw_eff *. burst_eff)
  in
  let compute_seconds = compute_cycles /. (freq *. 1e6) in
  let seconds =
    Float.max compute_seconds xfer_seconds
    +. (0.15 *. Float.min compute_seconds xfer_seconds)
    +. 5e-5 (* invocation overhead *)
  in
  (* ---------- evaluation-time model ---------- *)
  let eval_minutes =
    let complexity =
      (totals.lut /. 500_000.0)
      +. (float_of_int !max_unroll /. 128.0)
      +. (float_of_int (List.length summary.Canalysis.loops) /. 6.0)
    in
    Float.min 15.0 (Float.max 3.0 (3.0 +. complexity))
  in
  (* Charge the modeled HLS cost to this span: the profiler's virtual
     attribution puts the simulated minutes where the model says they
     are spent. The DSE driver re-anchors the clock at its own sites. *)
  S2fa_obs.Obs.advance_clock eval_minutes;
  { r_cycles = compute_cycles;
    r_ii = !worst_ii;
    r_freq_mhz = freq;
    r_seconds = seconds;
    r_compute_seconds = compute_seconds;
    r_xfer_seconds = xfer_seconds;
    r_lut_pct = lut_pct;
    r_ff_pct = ff_pct;
    r_bram_pct = bram_pct;
    r_dsp_pct = dsp_pct;
    r_feasible = feasible;
    r_eval_minutes = eval_minutes }

let spanned f =
  S2fa_obs.Obs.span "hls.estimate" @@ fun () ->
  S2fa_obs.Obs.count "hls.evals";
  f ()

let model summaries ~tasks ~buffer_elems =
  spanned (fun () -> run summaries ~tasks ~buffer_elems)

let estimate ?device ?nominal_trip prog ~tasks ~buffer_elems =
  spanned (fun () ->
      run ?device ?nominal_trip
        (List.map
           (fun (f : Csyntax.cfunc) -> (f.Csyntax.cfname, Canalysis.analyze f))
           prog.Csyntax.cfuncs)
        ~tasks ~buffer_elems)

(* ---------- report sanity checking ----------

   A real SDx run can return garbage (truncated logs, corrupted XML
   reports); the fault injector's [Transient] failure models exactly
   that. [check_report] is the one place that decides whether a report
   is structurally believable, shared by the injector's detection path
   and by the tests that assert every non-injected report is clean. *)

let check_report r =
  let fields =
    [ ("cycles", r.r_cycles); ("ii", r.r_ii); ("freq_mhz", r.r_freq_mhz);
      ("seconds", r.r_seconds); ("compute_seconds", r.r_compute_seconds);
      ("xfer_seconds", r.r_xfer_seconds); ("lut_pct", r.r_lut_pct);
      ("ff_pct", r.r_ff_pct); ("bram_pct", r.r_bram_pct);
      ("dsp_pct", r.r_dsp_pct); ("eval_minutes", r.r_eval_minutes) ]
  in
  let pcts =
    [ ("lut_pct", r.r_lut_pct); ("ff_pct", r.r_ff_pct);
      ("bram_pct", r.r_bram_pct); ("dsp_pct", r.r_dsp_pct) ]
  in
  match List.find_opt (fun (_, v) -> Float.is_nan v) fields with
  | Some (name, _) -> Error (name ^ " is NaN")
  | None ->
    if r.r_cycles < 0.0 then Error "negative cycle count"
    else if not (Float.is_finite r.r_cycles) then Error "non-finite cycle count"
    else if r.r_ii < 1.0 then Error "initiation interval below 1"
    else if r.r_freq_mhz <= 0.0 then Error "non-positive frequency"
    else if r.r_seconds <= 0.0 then Error "non-positive execution time"
    else begin
      match List.find_opt (fun (_, v) -> v < 0.0) pcts with
      | Some (name, _) -> Error ("negative utilization: " ^ name)
      | None ->
        (* Genuinely infeasible designs may report >100% of the device —
           that is their honest oversubscription — but a report claiming
           feasibility beyond the whole device is corrupt. *)
        if r.r_feasible && List.exists (fun (_, v) -> v > 1.0) pcts then
          Error "claims feasibility at >100% utilization"
        else if r.r_eval_minutes <= 0.0 then
          Error "non-positive eval minutes"
        else Ok ()
    end

let report_ok r = Result.is_ok (check_report r)

let pp_report ppf r =
  Format.fprintf ppf
    "cycles=%.3e ii=%.1f freq=%.0fMHz time=%.4fs lut=%.0f%% ff=%.0f%% \
     bram=%.0f%% dsp=%.0f%% feasible=%b eval=%.1fmin"
    r.r_cycles r.r_ii r.r_freq_mhz r.r_seconds (100.0 *. r.r_lut_pct)
    (100.0 *. r.r_ff_pct)
    (100.0 *. r.r_bram_pct)
    (100.0 *. r.r_dsp_pct)
    r.r_feasible r.r_eval_minutes
