module Ast = S2fa_scala.Ast
module Parser = S2fa_scala.Parser
module Typecheck = S2fa_scala.Typecheck
module Insn = S2fa_jvm.Insn
module Compile = S2fa_jvm.Compile
module Verify = S2fa_jvm.Verify
module Interp = S2fa_jvm.Interp
module Csyntax = S2fa_hlsc.Csyntax
module Decompile = S2fa_b2c.Decompile
module Transform = S2fa_merlin.Transform
module Estimate = S2fa_hls.Estimate
module Space = S2fa_tuner.Space
module Tuner = S2fa_tuner.Tuner
module Resultdb = S2fa_tuner.Resultdb
module Dspace = S2fa_dse.Dspace
module Driver = S2fa_dse.Driver
module Rng = S2fa_util.Rng
module Telemetry = S2fa_telemetry.Telemetry

exception Error of string

let fail stage msg = raise (Error (Printf.sprintf "%s: %s" stage msg))

type compiled = {
  c_class : Insn.cls;
  c_pretty : Csyntax.cprog;
  c_flat : Csyntax.cprog;
  c_iface : Decompile.iface;
  c_dspace : Dspace.t;
  c_buffer_elems : (string * int) list;
  c_input_ty : Ast.ty;
  c_output_ty : Ast.ty;
  c_analysis : Transform.analysis Lazy.t;
}

let compile ?class_name ?(operator = `Map) ?(in_caps = []) ?(out_caps = [])
    ?(field_caps = []) source =
  S2fa_obs.Obs.span "core.compile" @@ fun () ->
  let prog =
    try Parser.parse_program source with
    | Parser.Parse_error (m, p) ->
      fail "parse" (Printf.sprintf "%s at %d:%d" m p.Ast.line p.Ast.col)
    | S2fa_scala.Lexer.Lex_error (m, p) ->
      fail "lex" (Printf.sprintf "%s at %d:%d" m p.Ast.line p.Ast.col)
  in
  let tprog =
    try Typecheck.check_program prog
    with Typecheck.Type_error (m, p) ->
      fail "typecheck" (Printf.sprintf "%s at %d:%d" m p.Ast.line p.Ast.col)
  in
  let classes =
    try Compile.compile_program tprog
    with Compile.Unsupported m -> fail "bytecode" m
  in
  let cls =
    let accelerators =
      List.filter (fun (c : Insn.cls) -> c.Insn.jaccel <> None) classes
    in
    match class_name with
    | Some name -> (
      match
        List.find_opt
          (fun (c : Insn.cls) -> String.equal c.Insn.jcname name)
          classes
      with
      | Some c -> c
      | None -> fail "compile" (Printf.sprintf "no class named %s" name))
    | None -> (
      match accelerators with
      | c :: _ -> c
      | [] -> fail "compile" "no Accelerator class in the source")
  in
  (try Verify.verify_class cls
   with Verify.Verify_error m -> fail "verify" m);
  let pretty, iface =
    try Decompile.decompile_class ~operator ~in_caps ~out_caps ~field_caps cls
    with Decompile.Decompile_error m -> fail "bytecode-to-C" m
  in
  let flat =
    try Decompile.flat_kernel pretty
    with Decompile.Decompile_error m -> fail "inline" m
  in
  let dspace = Dspace.identify flat in
  let buffer_elems =
    List.map
      (fun (l : Decompile.slot_layout) ->
        (l.Decompile.sl_name, l.Decompile.sl_len))
      (iface.Decompile.if_inputs @ iface.Decompile.if_outputs
     @ iface.Decompile.if_fields)
  in
  let input_ty, output_ty =
    match cls.Insn.jaccel with
    | Some (i, o) -> (i, o)
    | None -> fail "compile" "selected class does not extend Accelerator"
  in
  { c_class = cls;
    c_pretty = pretty;
    c_flat = flat;
    c_iface = iface;
    c_dspace = dspace;
    c_buffer_elems = buffer_elems;
    c_input_ty = input_ty;
    c_output_ty = output_ty;
    c_analysis = lazy (Transform.analyse flat) }

let apply_design c cfg =
  Transform.apply (Dspace.to_merlin c.c_dspace cfg) c.c_flat

let estimate ?(tasks = 4096) c cfg =
  let design =
    Transform.summarize (Dspace.to_merlin c.c_dspace cfg)
      (Lazy.force c.c_analysis)
  in
  Estimate.model design ~tasks ~buffer_elems:c.c_buffer_elems

let detail_of_report (r : Estimate.report) =
  { Resultdb.d_cycles = r.Estimate.r_cycles;
    d_freq_mhz = r.Estimate.r_freq_mhz;
    d_lut_pct = r.Estimate.r_lut_pct;
    d_ff_pct = r.Estimate.r_ff_pct;
    d_bram_pct = r.Estimate.r_bram_pct;
    d_dsp_pct = r.Estimate.r_dsp_pct }

let objective ?(tasks = 4096) ?db c cfg =
  (* The DSE optimizes steady-state kernel throughput: compute cycles at
     the achieved frequency (Fig. 3's "normalized execution cycle"),
     overlapped with off-chip transfer by double buffering — so the
     binding term is whichever is slower. *)
  let r = estimate ~tasks c cfg in
  (* When a result DB is in play, enrich this point's (future) entry with
     the full estimator tuple — cycles, frequency, resources. The DB
     itself is consulted by the tuner, not here: memoization lives in one
     place so hit/miss counters stay meaningful. *)
  (match db with
  | Some db -> Resultdb.attach_detail db cfg (detail_of_report r)
  | None -> ());
  { Tuner.e_perf =
      (if r.Estimate.r_feasible then
         Float.max r.Estimate.r_compute_seconds r.Estimate.r_xfer_seconds
       else infinity);
    e_feasible = r.Estimate.r_feasible;
    e_minutes = r.Estimate.r_eval_minutes }

let explore ?opts ?tasks ?db ?trace ?faults ?checkpoint c rng =
  Driver.run_s2fa ?opts ?db ?trace ?faults ?checkpoint c.c_dspace
    (objective ?tasks ?db c) rng

let explore_vanilla ?time_limit ?tasks ?db ?trace ?faults ?checkpoint c rng =
  Driver.run_vanilla ?time_limit ?db ?trace ?faults ?checkpoint c.c_dspace
    (objective ?tasks ?db c) rng

let resume ?opts ?tasks ?db ?trace ?faults ?checkpoint ?file ~snapshot c rng =
  Driver.resume_from_checkpoint ?opts ?db ?trace ?faults ?checkpoint ?file
    ~snapshot c.c_dspace
    (objective ?tasks ?db c)
    rng

let accel_id (cls : Insn.cls) =
  match List.assoc_opt "id" cls.Insn.jconsts with
  | Some (Ast.LString s) -> s
  | _ -> cls.Insn.jcname

let make_accelerator ?design c ~fields =
  let prog =
    match design with None -> c.c_flat | Some cfg -> apply_design c cfg
  in
  { S2fa_blaze.Blaze.acc_id = accel_id c.c_class;
    acc_prog = prog;
    acc_iface = c.c_iface;
    acc_input_ty = c.c_input_ty;
    acc_output_ty = c.c_output_ty;
    acc_fields = fields;
    acc_buffer_elems = c.c_buffer_elems }

let serve_app ?design ?(weight = 1.0) ?(batch = 16) ?(queue_cap = 64) ~name
    ~fields c =
  { S2fa_fleet.Fleet.ap_name = name;
    ap_accel = make_accelerator ?design c ~fields;
    ap_cls = c.c_class;
    ap_fields = fields;
    ap_weight = weight;
    ap_batch = batch;
    ap_queue_cap = queue_cap }

let emit_c ?design c =
  match design with
  | None -> Csyntax.to_string c.c_pretty
  | Some cfg -> Csyntax.to_string (apply_design c cfg)
