(* Blaze runtime tests: RDDs, (de)serialization, accelerator dispatch. *)
module Ast = S2fa_scala.Ast
module Interp = S2fa_jvm.Interp
module Cinterp = S2fa_hlsc.Cinterp
module Rdd = S2fa_blaze.Rdd
module Serde = S2fa_blaze.Serde
module Blaze = S2fa_blaze.Blaze
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Rng = S2fa_util.Rng

(* ---------- RDD ---------- *)

let test_rdd_count_and_partitions () =
  let r = Rdd.of_list ~partitions:4 [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check int) "count" 10 (Rdd.count r);
  Alcotest.(check int) "partitions" 4 (Array.length (Rdd.partitions r))

let test_rdd_map () =
  let r = Rdd.of_list ~partitions:3 [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (array int)) "doubled" [| 2; 4; 6; 8; 10 |]
    (Rdd.collect (Rdd.map (fun x -> 2 * x) r))

let test_rdd_map_preserves_order () =
  let xs = List.init 23 (fun i -> i) in
  let r = Rdd.of_list ~partitions:5 xs in
  Alcotest.(check (array int)) "collect order" (Array.of_list xs)
    (Rdd.collect r)

let test_rdd_reduce () =
  let r = Rdd.of_list ~partitions:4 [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check int) "sum" 21 (Rdd.reduce ( + ) r)

let test_rdd_reduce_empty () =
  let r = Rdd.of_list ([] : int list) in
  Alcotest.check_raises "empty reduce"
    (Invalid_argument "Rdd.reduce: empty RDD") (fun () ->
      ignore (Rdd.reduce ( + ) r))

let test_rdd_filter () =
  let r = Rdd.of_list ~partitions:3 [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check (array int)) "evens" [| 2; 4; 6 |]
    (Rdd.collect (Rdd.filter (fun x -> x mod 2 = 0) r))

let test_rdd_zip_with_index () =
  let r = Rdd.of_list ~partitions:2 [ "a"; "b"; "c" ] in
  Alcotest.(check (array (pair string int))) "indices"
    [| ("a", 0); ("b", 1); ("c", 2) |]
    (Rdd.collect (Rdd.zip_with_index r))

let test_rdd_map_partitions () =
  let r = Rdd.of_list ~partitions:2 [ 1; 2; 3; 4 ] in
  let sums = Rdd.map_partitions (fun p -> [| Array.fold_left ( + ) 0 p |]) r in
  Alcotest.(check int) "two partition sums" 2 (Rdd.count sums);
  Alcotest.(check int) "total" 10 (Rdd.reduce ( + ) sums)

(* ---------- serde ---------- *)

let sw = lazy (W.compile (Option.get (W.find "S-W")))

let test_serde_roundtrip_strings () =
  let c = Lazy.force sw in
  let iface = c.S2fa.c_iface in
  let tasks =
    [| Interp.VTuple [| W.str "ACGT"; W.str "TTTT" |];
       Interp.VTuple [| W.str "GGGG"; W.str "CCCC" |] |]
  in
  let bufs = Serde.serialize_inputs iface c.S2fa.c_input_ty tasks in
  (* in_1 holds "ACGT" padded to 64, then "GGGG" padded. *)
  match List.assoc "in_1" bufs with
  | Cinterp.VA a ->
    Alcotest.(check int) "capacity x tasks" 128 (Array.length a);
    Alcotest.(check bool) "first char" true (a.(0) = Cinterp.VI (Char.code 'A'));
    Alcotest.(check bool) "padding is zero" true (a.(10) = Cinterp.VI 0);
    Alcotest.(check bool) "second task offset" true
      (a.(64) = Cinterp.VI (Char.code 'G'))
  | _ -> Alcotest.fail "in_1 buffer missing"

let test_serde_truncates_overlong () =
  let c = Lazy.force sw in
  let iface = c.S2fa.c_iface in
  let long = String.make 100 'A' in
  let tasks = [| Interp.VTuple [| W.str long; W.str "T" |] |] in
  let bufs = Serde.serialize_inputs iface c.S2fa.c_input_ty tasks in
  match List.assoc "in_1" bufs with
  | Cinterp.VA a -> Alcotest.(check int) "clamped to capacity" 64 (Array.length a)
  | _ -> Alcotest.fail "buffer missing"

let test_serde_output_deserialization () =
  let c = Lazy.force sw in
  let iface = c.S2fa.c_iface in
  let outs = Serde.alloc_outputs iface 2 in
  (* Scribble a recognizable byte into task 1's out_1. *)
  (match List.assoc "out_1" outs with
  | Cinterp.VA a -> a.(128) <- Cinterp.VI 42 (* task 1, element 0 *)
  | _ -> Alcotest.fail "out_1 missing");
  let v = Serde.deserialize_output iface c.S2fa.c_output_ty outs 1 in
  match v with
  | Interp.VTuple [| Interp.VArr a; _ |] ->
    Alcotest.(check bool) "byte recovered" true (a.Interp.adata.(0) = Interp.VChar '*')
  | _ -> Alcotest.fail "tuple expected"

let test_serde_field_buffers () =
  let w = Option.get (W.find "KMeans") in
  let c = W.compile w in
  let fields = [ ("centers", W.darr (Array.init 128 float_of_int)) ] in
  match Serde.field_buffers c.S2fa.c_iface fields with
  | [ ("f_centers", Cinterp.VA a) ] ->
    Alcotest.(check int) "capacity" 128 (Array.length a);
    Alcotest.(check bool) "value" true (a.(5) = Cinterp.VF 5.0)
  | _ -> Alcotest.fail "field buffer missing"

let test_serde_missing_field_rejected () =
  let w = Option.get (W.find "KMeans") in
  let c = W.compile w in
  try
    ignore (Serde.field_buffers c.S2fa.c_iface []);
    Alcotest.fail "missing field should raise"
  with Serde.Serde_error _ -> ()

let test_bytes_of_iface () =
  let c = Lazy.force sw in
  (* S-W: 64+64 input chars + 128+128 output chars per task. *)
  Alcotest.(check (float 1e-9)) "bytes for 10 tasks" 3840.0
    (Serde.bytes_of_iface c.S2fa.c_iface ~tasks:10)

(* ---------- runtime ---------- *)

let test_manager_register_find () =
  let c = Lazy.force sw in
  let mgr = Blaze.create_manager () in
  Alcotest.(check bool) "absent" true (Blaze.find mgr "S-W" = None);
  Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
  Alcotest.(check bool) "present" true (Blaze.find mgr "S-W" <> None)

let test_unknown_id_rejected () =
  let mgr = Blaze.create_manager () in
  try
    ignore (Blaze.map_accelerated mgr ~id:"nope" [| Interp.VInt 1 |]);
    Alcotest.fail "unknown id should raise"
  with Blaze.Blaze_error _ -> ()

let test_empty_batch () =
  let c = Lazy.force sw in
  let mgr = Blaze.create_manager () in
  Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
  let r = Blaze.map_accelerated mgr ~id:"S-W" [||] in
  Alcotest.(check int) "no values" 0 (Array.length r.Blaze.tr_values);
  Alcotest.(check (float 1e-9)) "no time" 0.0 r.Blaze.tr_seconds

let test_fpga_beats_jvm_on_batch () =
  (* For a realistic batch the accelerated path must be faster. *)
  let w = Option.get (W.find "S-W") in
  let c = W.compile w in
  let rng = Rng.create 1 in
  let tasks = w.W.w_gen rng 64 in
  let jvm = Blaze.map_jvm c.S2fa.c_class ~fields:[] tasks in
  let mgr = Blaze.create_manager () in
  let design = W.manual_design w c in
  Blaze.register mgr (S2fa.make_accelerator ~design c ~fields:[]);
  let fpga = Blaze.map_accelerated mgr ~id:"S-W" tasks in
  Alcotest.(check bool) "speedup > 1" true
    (jvm.Blaze.tr_seconds > fpga.Blaze.tr_seconds)

let test_time_detail_breakdown () =
  let c = Lazy.force sw in
  let w = Option.get (W.find "S-W") in
  let rng = Rng.create 2 in
  let tasks = w.W.w_gen rng 4 in
  let mgr = Blaze.create_manager () in
  Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
  let r = Blaze.map_accelerated mgr ~id:"S-W" tasks in
  Alcotest.(check bool) "has serde entry" true
    (List.mem_assoc "serde" r.Blaze.tr_detail);
  Alcotest.(check bool) "has fpga entry" true
    (List.mem_assoc "fpga" r.Blaze.tr_detail);
  let total =
    List.fold_left (fun a (_, s) -> a +. s) 0.0 r.Blaze.tr_detail
  in
  Alcotest.(check (float 1e-12)) "detail sums to total" r.Blaze.tr_seconds total

(* ---------- reduce operator ---------- *)

let vecsum_src =
  {|
class VecSum() extends Accelerator[(Array[Double], Array[Double]), Array[Double]] {
  val id: String = "VecSum"
  def call(in: (Array[Double], Array[Double])): Array[Double] = {
    val a = in._1
    val b = in._2
    val out = new Array[Double](16)
    for (i <- 0 until 16) {
      out(i) = a(i) + b(i)
    }
    out
  }
}
|}

let vecsum = lazy (S2fa.compile ~operator:`Reduce ~in_caps:[ 16 ] ~out_caps:[ 16 ] vecsum_src)

let test_reduce_shape () =
  let c = Lazy.force vecsum in
  Alcotest.(check bool) "marked as reduce" true
    c.S2fa.c_iface.S2fa_b2c.Decompile.if_reduce;
  let s = S2fa_hlsc.Csyntax.to_string c.S2fa.c_pretty in
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* The fold loop starts at task 1 (task 0 seeds the accumulator). *)
  Alcotest.(check bool) "fold from t=1" true (contains s "int t = 1")

let test_reduce_equivalence () =
  let c = Lazy.force vecsum in
  let rng = Rng.create 31 in
  let tasks =
    Array.init 9 (fun _ ->
        W.darr (Array.init 16 (fun _ -> Rng.float rng 10.0)))
  in
  let jvm = Blaze.reduce_jvm c.S2fa.c_class ~fields:[] tasks in
  let mgr = Blaze.create_manager () in
  Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
  let fpga = Blaze.reduce_accelerated mgr ~id:"VecSum" tasks in
  Alcotest.(check bool) "fold results agree" true
    (Interp.equal_value jvm.Blaze.tr_values.(0) fpga.Blaze.tr_values.(0))

let test_reduce_single_task () =
  let c = Lazy.force vecsum in
  let tasks = [| W.darr (Array.init 16 float_of_int) |] in
  let mgr = Blaze.create_manager () in
  Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
  let fpga = Blaze.reduce_accelerated mgr ~id:"VecSum" tasks in
  Alcotest.(check bool) "single task is the identity" true
    (Interp.equal_value tasks.(0) fpga.Blaze.tr_values.(0))

let test_reduce_on_map_accel_rejected () =
  let w = Option.get (W.find "KMeans") in
  let c = W.compile w in
  let mgr = Blaze.create_manager () in
  Blaze.register mgr
    (S2fa.make_accelerator c ~fields:(w.W.w_fields (Rng.create 1)));
  try
    ignore (Blaze.reduce_accelerated mgr ~id:"KMeans" [| Interp.VInt 1 |]);
    Alcotest.fail "map accelerator must reject reduce dispatch"
  with Blaze.Blaze_error _ -> ()

let test_reduce_bad_signature_rejected () =
  let src = {|
class Bad() extends Accelerator[(Int, Double), Int] {
  val id: String = "bad"
  def call(in: (Int, Double)): Int = in._1
}
|} in
  try
    ignore (S2fa.compile ~operator:`Reduce src);
    Alcotest.fail "non-combiner signature must be rejected"
  with S2fa.Error _ -> ()

(* PR compiled and registered once, shared by the properties below. *)
let pr_setup =
  lazy
    (let w = Option.get (W.find "PR") in
     let c = W.compile w in
     let mgr = Blaze.create_manager () in
     Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
     (w, c, mgr))

(* property: serde round-trips survive interleaved multi-producer
   queues. Several producers' records are interleaved round-robin into
   one shared dispatch queue; every record must come back bit-identical
   to its own producer's JVM baseline, at its own position. *)
let prop_serde_interleaved_producers =
  QCheck.Test.make ~name:"serde interleaved producers" ~count:20
    QCheck.(pair (int_range 2 4) (int_range 1 1000))
    (fun (producers, seed) ->
      let w, c, mgr = Lazy.force pr_setup in
      (* Each producer owns a private stream and queue. *)
      let queues =
        Array.init producers (fun i ->
            w.W.w_gen (Rng.create ((seed * 31) + i)) (4 + (i * 3)))
      in
      let interleaved = ref [] in
      let longest = Array.fold_left (fun m q -> max m (Array.length q)) 0 queues in
      for round = 0 to longest - 1 do
        Array.iteri
          (fun p q ->
            if round < Array.length q then
              interleaved := (p, round, q.(round)) :: !interleaved)
          queues
      done;
      let interleaved = Array.of_list (List.rev !interleaved) in
      let batch = Array.map (fun (_, _, v) -> v) interleaved in
      let acc = Blaze.map_accelerated mgr ~id:"PR" batch in
      let baselines =
        Array.map
          (fun q -> (Blaze.map_jvm c.S2fa.c_class ~fields:[] q).Blaze.tr_values)
          queues
      in
      Array.for_all
        (fun i ->
          let p, round, _ = interleaved.(i) in
          Interp.equal_value acc.Blaze.tr_values.(i) baselines.(p).(round))
        (Array.init (Array.length interleaved) (fun i -> i)))

(* property: RDD map then collect = List.map *)
let prop_rdd_map_law =
  QCheck.Test.make ~name:"rdd map law" ~count:200
    QCheck.(pair (list int) (int_range 1 8))
    (fun (xs, parts) ->
      let r = Rdd.of_list ~partitions:parts xs in
      Rdd.collect (Rdd.map succ r) = Array.of_list (List.map succ xs))

let prop_rdd_reduce_law =
  QCheck.Test.make ~name:"rdd reduce = fold" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) int) (int_range 1 8))
    (fun (xs, parts) ->
      let r = Rdd.of_list ~partitions:parts xs in
      Rdd.reduce ( + ) r = List.fold_left ( + ) 0 xs)

let () =
  Alcotest.run "blaze"
    [ ( "rdd",
        [ Alcotest.test_case "count/partitions" `Quick
            test_rdd_count_and_partitions;
          Alcotest.test_case "map" `Quick test_rdd_map;
          Alcotest.test_case "order preserved" `Quick
            test_rdd_map_preserves_order;
          Alcotest.test_case "reduce" `Quick test_rdd_reduce;
          Alcotest.test_case "reduce empty" `Quick test_rdd_reduce_empty;
          Alcotest.test_case "filter" `Quick test_rdd_filter;
          Alcotest.test_case "zip_with_index" `Quick test_rdd_zip_with_index;
          Alcotest.test_case "map_partitions" `Quick test_rdd_map_partitions
        ] );
      ( "serde",
        [ Alcotest.test_case "string roundtrip" `Quick
            test_serde_roundtrip_strings;
          Alcotest.test_case "truncation" `Quick test_serde_truncates_overlong;
          Alcotest.test_case "output deserialization" `Quick
            test_serde_output_deserialization;
          Alcotest.test_case "field buffers" `Quick test_serde_field_buffers;
          Alcotest.test_case "missing field" `Quick
            test_serde_missing_field_rejected;
          Alcotest.test_case "bytes_of_iface" `Quick test_bytes_of_iface ] );
      ( "runtime",
        [ Alcotest.test_case "register/find" `Quick test_manager_register_find;
          Alcotest.test_case "unknown id" `Quick test_unknown_id_rejected;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "fpga beats jvm" `Slow test_fpga_beats_jvm_on_batch;
          Alcotest.test_case "time breakdown" `Quick test_time_detail_breakdown
        ] );
      ( "reduce",
        [ Alcotest.test_case "generated shape" `Quick test_reduce_shape;
          Alcotest.test_case "fold equivalence" `Quick test_reduce_equivalence;
          Alcotest.test_case "single task" `Quick test_reduce_single_task;
          Alcotest.test_case "map accel rejected" `Quick
            test_reduce_on_map_accel_rejected;
          Alcotest.test_case "bad signature rejected" `Quick
            test_reduce_bad_signature_rejected ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_rdd_map_law;
            prop_rdd_reduce_law;
            prop_serde_interleaved_producers ] ) ]
