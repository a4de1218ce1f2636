module Ast = S2fa_scala.Ast
module Insn = S2fa_jvm.Insn
module Interp = S2fa_jvm.Interp
module Cinterp = S2fa_hlsc.Cinterp
module Csyntax = S2fa_hlsc.Csyntax
module Decompile = S2fa_b2c.Decompile
module Estimate = S2fa_hls.Estimate
module Obs = S2fa_obs.Obs

exception Blaze_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Blaze_error m)) fmt

type accel = {
  acc_id : string;
  acc_prog : Csyntax.cprog;
  acc_iface : Decompile.iface;
  acc_input_ty : Ast.ty;
  acc_output_ty : Ast.ty;
  acc_fields : (string * Interp.value) list;
  acc_buffer_elems : (string * int) list;
}

(* What a registration keeps: the kernel compiled once, and the HLS
   report per batch size, which for a given design depends on nothing
   else. Re-registering an id (a promoted design) starts both afresh. *)
type registration = {
  rg_accel : accel;
  rg_kernel : Cinterp.compiled;
  rg_reports : (int, Estimate.report) Hashtbl.t;
}

type manager = { mutable accels : (string * registration) list }

let create_manager () = { accels = [] }

let register m a =
  let rg =
    { rg_accel = a;
      rg_kernel = Cinterp.compile a.acc_prog;
      rg_reports = Hashtbl.create 8 }
  in
  m.accels <- (a.acc_id, rg) :: List.remove_assoc a.acc_id m.accels

let find m id = Option.map (fun rg -> rg.rg_accel) (List.assoc_opt id m.accels)

type timed_result = {
  tr_values : Interp.value array;
  tr_seconds : float;
  tr_detail : (string * float) list;
}

let jvm_hz = 3.0e9

(* A Spark executor does not run bare JIT-perfect code: closures are
   dispatched per record, values cross generic interfaces (boxing), and
   the GC taxes every allocation. Calibrated against published
   Spark-vs-native gaps: ~4x on the modeled instruction costs plus a
   fixed per-record overhead of about 2 microseconds. *)
let spark_cost_factor = 4.0

let spark_task_overhead_cycles = 6_000.0

(* Host-side (de)serialization throughput: reflection-based object
   scatter/gather on the JVM, roughly 1 GB/s. *)
let serde_bytes_per_second = 1.0e9

(* The estimator charges its modeled tool minutes to the ambient
   clock, but a dispatch is not a DSE evaluation: restore the clock so
   the caller's later spans keep their stamps. *)
let memo_report rg n =
  match Hashtbl.find_opt rg.rg_reports n with
  | Some r -> r
  | None ->
    let v0 = Obs.clock () in
    let r =
      Estimate.estimate rg.rg_accel.acc_prog ~tasks:n
        ~buffer_elems:rg.rg_accel.acc_buffer_elems
    in
    Obs.set_clock v0;
    Hashtbl.add rg.rg_reports n r;
    r

(* One dispatch of [tasks] (typed [input_ty]) through the registered
   kernel: serialize, run, read [out_tasks] results back with
   [collect], and time the batch. *)
let dispatch rg ~input_ty ~out_tasks ~collect tasks =
  let a = rg.rg_accel in
  let n = Array.length tasks in
  let inputs =
    try Serde.serialize_inputs a.acc_iface input_ty tasks
    with Serde.Serde_error msg -> err "serialization failed: %s" msg
  in
  let outputs = Serde.alloc_outputs a.acc_iface out_tasks in
  let fields =
    try Serde.field_buffers a.acc_iface a.acc_fields
    with Serde.Serde_error msg -> err "field packing failed: %s" msg
  in
  let args = (("N", Cinterp.VI n) :: inputs) @ outputs @ fields in
  (try ignore (Cinterp.run rg.rg_kernel a.acc_iface.Decompile.if_kernel args)
   with Cinterp.C_error msg -> err "kernel execution failed: %s" msg);
  let values = collect outputs in
  let fpga_s = (memo_report rg n).Estimate.r_seconds in
  let bytes = Serde.bytes_of_iface a.acc_iface ~tasks:n in
  Obs.count_by n "blaze.tasks";
  Obs.count_by (int_of_float bytes) "serde.bytes";
  let serde_s = bytes /. serde_bytes_per_second in
  { tr_values = values;
    tr_seconds = serde_s +. fpga_s;
    tr_detail = [ ("serde", serde_s); ("fpga", fpga_s) ] }

let registration m id =
  match List.assoc_opt id m.accels with
  | Some rg -> rg
  | None -> err "no accelerator registered under id %s" id

let report m ~id n = memo_report (registration m id) n

let map_accelerated m ~id tasks =
  let rg = registration m id in
  let a = rg.rg_accel in
  let n = Array.length tasks in
  if n = 0 then { tr_values = [||]; tr_seconds = 0.0; tr_detail = [] }
  else
    dispatch rg ~input_ty:a.acc_input_ty ~out_tasks:n
      ~collect:(fun outputs ->
        Array.init n (fun t ->
            Serde.deserialize_output a.acc_iface a.acc_output_ty outputs t))
      tasks

let reduce_accelerated m ~id tasks =
  let rg = registration m id in
  let a = rg.rg_accel in
  if not a.acc_iface.Decompile.if_reduce then
    err "accelerator %s implements the map operator, not reduce" id;
  if Array.length tasks = 0 then err "reduce of an empty batch";
  dispatch rg ~input_ty:a.acc_output_ty ~out_tasks:1
    ~collect:(fun outputs ->
      [| Serde.deserialize_output a.acc_iface a.acc_output_ty outputs 0 |])
    tasks

let map_jvm cls ~fields tasks =
  let inst = { Interp.icls = cls; ifields = fields } in
  let cycles = ref 0.0 in
  let values =
    Array.map
      (fun task ->
        let r = Interp.run_method inst "call" [ task ] in
        cycles := !cycles +. r.Interp.rcycles;
        r.Interp.rvalue)
      tasks
  in
  let n = float_of_int (Array.length tasks) in
  let seconds =
    ((!cycles *. spark_cost_factor) +. (n *. spark_task_overhead_cycles))
    /. jvm_hz
  in
  { tr_values = values;
    tr_seconds = seconds;
    tr_detail = [ ("jvm", seconds) ] }

let reduce_jvm cls ~fields tasks =
  if Array.length tasks = 0 then err "reduce of an empty batch";
  let inst = { Interp.icls = cls; ifields = fields } in
  let cycles = ref 0.0 in
  let acc = ref tasks.(0) in
  for i = 1 to Array.length tasks - 1 do
    let r =
      Interp.run_method inst "call" [ Interp.VTuple [| !acc; tasks.(i) |] ]
    in
    cycles := !cycles +. r.Interp.rcycles;
    acc := r.Interp.rvalue
  done;
  let n = float_of_int (Array.length tasks) in
  let seconds =
    ((!cycles *. spark_cost_factor) +. (n *. spark_task_overhead_cycles))
    /. jvm_hz
  in
  { tr_values = [| !acc |];
    tr_seconds = seconds;
    tr_detail = [ ("jvm", seconds) ] }
