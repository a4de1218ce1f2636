(* Bytecode-to-C decompiler tests, including the central compiler-
   correctness property: the bytecode interpreter and the C interpreter
   agree on every workload, for random inputs. *)
module Ast = S2fa_scala.Ast
module Interp = S2fa_jvm.Interp
module Compile = S2fa_jvm.Compile
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Canalysis = S2fa_hlsc.Canalysis
module Cfg = S2fa_b2c.Cfg
module D = S2fa_b2c.Decompile
module Blaze = S2fa_blaze.Blaze
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Rng = S2fa_util.Rng

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------- CFG ---------- *)

let test_cfg_linear () =
  let cls =
    List.hd (Compile.compile_source {|
class C() {
  def f(a: Int): Int = a + 1
}
|})
  in
  let m = List.hd cls.S2fa_jvm.Insn.jmethods in
  let g = Cfg.build m.S2fa_jvm.Insn.jcode in
  Alcotest.(check int) "single block" 1 (Array.length g.Cfg.blocks);
  Alcotest.(check (list (pair int (list int)))) "no loops" []
    g.Cfg.loop_headers

let test_cfg_loop_detected () =
  let cls =
    List.hd
      (Compile.compile_source
         {|
class C() {
  def f(n: Int): Int = {
    var s = 0
    for (i <- 0 until n) { s = s + i }
    s
  }
}
|})
  in
  let m = List.hd cls.S2fa_jvm.Insn.jmethods in
  let g = Cfg.build m.S2fa_jvm.Insn.jcode in
  Alcotest.(check int) "one natural loop" 1 (List.length g.Cfg.loop_headers)

let test_cfg_dominators () =
  let cls =
    List.hd
      (Compile.compile_source
         {|
class C() {
  def f(a: Int): Int = {
    var r = 0
    if (a > 0) { r = 1 } else { r = 2 }
    r
  }
}
|})
  in
  let m = List.hd cls.S2fa_jvm.Insn.jmethods in
  let g = Cfg.build m.S2fa_jvm.Insn.jcode in
  (* Entry dominates everything. *)
  Array.iter
    (fun b ->
      Alcotest.(check bool) "entry dominates" true
        (Cfg.dominates g g.Cfg.entry b.Cfg.bid))
    g.Cfg.blocks

(* ---------- decompilation shape ---------- *)

let sw = Option.get (W.find "S-W")

let test_decompile_sw_shape () =
  let c = W.compile sw in
  let s = Csyntax.to_string c.S2fa.c_pretty in
  (* Flattened tuple interface, as in Code 3 of the paper. *)
  Alcotest.(check bool) "in_1 buffer" true (contains s "char *in_1");
  Alcotest.(check bool) "in_2 buffer" true (contains s "char *in_2");
  Alcotest.(check bool) "out buffers" true (contains s "char *out_1");
  Alcotest.(check bool) "task kernel" true (contains s "void kernel(int N");
  Alcotest.(check bool) "helper kept" true (contains s "int score(char");
  (* The returned local arrays were aliased onto the out buffers. *)
  Alcotest.(check bool) "no local out1 decl" false (contains s "char out1[")

let test_decompile_for_recovery () =
  let c = W.compile sw in
  let kernel = Option.get (Csyntax.find_cfunc c.S2fa.c_flat "kernel") in
  let s = Canalysis.analyze kernel in
  (* Task loop + zero-init of m + i/j nest + two out zero-loops >= 5. *)
  Alcotest.(check bool) "at least 5 counted loops" true
    (List.length s.Canalysis.loops >= 5);
  (* All recovered loops are canonical counted loops with constant trip
     except the task loop. *)
  let unknown =
    List.filter (fun li -> li.Canalysis.li_trip = None) s.Canalysis.loops
  in
  Alcotest.(check int) "only the task loop has unknown trip" 1
    (List.length unknown)

let test_decompile_fields_become_params () =
  let w = Option.get (W.find "KMeans") in
  let c = W.compile w in
  let s = Csyntax.to_string c.S2fa.c_pretty in
  Alcotest.(check bool) "field param" true (contains s "double *f_centers")

let test_decompile_scalar_output () =
  let w = Option.get (W.find "KMeans") in
  let c = W.compile w in
  match c.S2fa.c_iface.D.if_outputs with
  | [ { D.sl_len = 1; sl_elem = Csyntax.CInt; _ } ] -> ()
  | _ -> Alcotest.fail "KMeans output should be one int per task"

let test_decompile_layout_capacities () =
  let c = W.compile sw in
  let caps =
    List.map (fun (l : D.slot_layout) -> l.D.sl_len) c.S2fa.c_iface.D.if_inputs
  in
  Alcotest.(check (list int)) "input capacities" [ 64; 64 ] caps

let test_flat_kernel_inlines_call () =
  let c = W.compile sw in
  let flat = Csyntax.to_string c.S2fa.c_flat in
  Alcotest.(check bool) "no separate call" false (contains flat "void call(");
  Alcotest.(check bool) "helper survives" true (contains flat "int score(")

let test_unsupported_nested_interface_array () =
  let src =
    {|
class C() extends Accelerator[Array[Array[Int]], Int] {
  val id: String = "c"
  def call(in: Array[Array[Int]]): Int = 0
}
|}
  in
  try
    ignore (S2fa.compile src);
    Alcotest.fail "nested array interface should be rejected"
  with S2fa.Error _ -> ()

(* ---------- the equivalence property on all 8 workloads ---------- *)

let run_workload_equivalence (w : W.t) () =
  let c = W.compile w in
  let rng = Rng.create 2026 in
  let fields = w.W.w_fields rng in
  let tasks = w.W.w_gen rng 16 in
  let jvm = Blaze.map_jvm c.S2fa.c_class ~fields tasks in
  let mgr = Blaze.create_manager () in
  Blaze.register mgr (S2fa.make_accelerator c ~fields);
  let fpga = Blaze.map_accelerated mgr ~id:w.W.w_name tasks in
  Array.iteri
    (fun i v ->
      if not (Interp.equal_value v fpga.Blaze.tr_values.(i)) then
        Alcotest.failf "task %d differs: jvm=%a fpga=%a" i Interp.pp_value v
          Interp.pp_value
          fpga.Blaze.tr_values.(i))
    jvm.Blaze.tr_values

(* ---------- property: random generated kernels agree ---------- *)

let gen_random_kernel =
  (* Random kernels: Array[Int] -> Array[Int], loops with constant
     bounds, conditionals, reductions, helper-free. *)
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "s" ] in
  let rd = oneofl [ "x"; "y"; "s"; "in(k)"; "out(k)" ] in
  let expr =
    map3
      (fun a op b -> Printf.sprintf "(%s %s %s)" a op b)
      rd
      (oneofl [ "+"; "-"; "*" ])
      rd
  in
  let scalar_assign = map2 (fun v e -> Printf.sprintf "%s = %s" v e) var expr in
  let store = map (fun e -> Printf.sprintf "out(k) = %s" e) expr in
  let guarded =
    map3
      (fun a b s -> Printf.sprintf "if (%s < %s) { %s }" a b s)
      rd expr scalar_assign
  in
  let stmt = frequency [ (3, scalar_assign); (3, store); (2, guarded) ] in
  let body = list_size (int_range 1 5) stmt in
  map
    (fun stmts ->
      Printf.sprintf
        {|
class G() extends Accelerator[Array[Int], Array[Int]] {
  val id: String = "g"
  def call(in: Array[Int]): Array[Int] = {
    val out = new Array[Int](8)
    var x = in(0)
    var y = in(1)
    var s = 0
    for (k <- 0 until 8) {
      %s
    }
    out
  }
}
|}
        (String.concat "\n      " stmts))
    body

let prop_random_kernels_equivalent =
  QCheck.Test.make ~name:"random kernels: JVM = C" ~count:120
    (QCheck.make gen_random_kernel) (fun src ->
      let c = S2fa.compile ~in_caps:[ 8 ] ~out_caps:[ 8 ] src in
      let rng = Rng.create 11 in
      let tasks =
        Array.init 4 (fun _ ->
            Interp.VArr
              { Interp.aelem = Ast.TInt;
                adata = Array.init 8 (fun _ -> Interp.VInt (Rng.int_in rng (-9) 9)) })
      in
      let jvm = Blaze.map_jvm c.S2fa.c_class ~fields:[] tasks in
      let mgr = Blaze.create_manager () in
      Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
      let fpga = Blaze.map_accelerated mgr ~id:"g" tasks in
      Array.for_all2 Interp.equal_value jvm.Blaze.tr_values
        fpga.Blaze.tr_values)

(* A richer generator: doubles, math intrinsics, nested counted loops
   and while loops. Expressions avoid NaN sources (guarded domains) so
   float equality is meaningful; both interpreters evaluate the same
   recovered expression trees, so results must be bit-identical. *)
let gen_rich_kernel =
  let open QCheck.Gen in
  let dvar = oneofl [ "x"; "y"; "acc" ] in
  let datom =
    oneof
      [ dvar;
        map (fun i -> Printf.sprintf "a(%d)" i) (int_range 0 7);
        map (fun f -> Printf.sprintf "%.3f" f) (float_range (-4.0) 4.0) ]
  in
  let dexpr =
    oneof
      [ map3
          (fun a op b -> Printf.sprintf "(%s %s %s)" a op b)
          datom
          (oneofl [ "+"; "-"; "*" ])
          datom;
        map (fun a -> Printf.sprintf "math.sqrt(%s * %s + 1.0)" a a) datom;
        map (fun a -> Printf.sprintf "math.log(%s * %s + 1.5)" a a) datom;
        map2 (fun a b -> Printf.sprintf "math.max(%s, %s)" a b) datom datom ]
  in
  let assign = map2 (fun v e -> Printf.sprintf "%s = %s" v e) dvar dexpr in
  let store =
    map2 (fun i e -> Printf.sprintf "out(%d) = %s" i e) (int_range 0 7) dexpr
  in
  let guarded =
    map3
      (fun a b s -> Printf.sprintf "if (%s < %s) { %s }" a b s)
      datom dexpr assign
  in
  let for_loop =
    map2
      (fun n body -> Printf.sprintf "for (k <- 0 until %d) { out(k %% 8) = out(k %% 8) + %s }" n body)
      (int_range 1 6) dexpr
  in
  let while_loop =
    map
      (fun body ->
        Printf.sprintf
          "var w = 0\n      while (w < 4) { acc = acc + %s\n        w = w + 1 }"
          body)
      dexpr
  in
  let stmt =
    frequency
      [ (3, assign); (3, store); (2, guarded); (2, for_loop); (1, while_loop) ]
  in
  map
    (fun stmts ->
      Printf.sprintf
        {|
class R() extends Accelerator[Array[Double], Array[Double]] {
  val id: String = "r"
  def call(in: Array[Double]): Array[Double] = {
    val a = in
    val out = new Array[Double](8)
    var x = a(0)
    var y = a(1)
    var acc = 0.0
    %s
    out(0) = out(0) + acc + x + y
    out
  }
}
|}
        (String.concat "\n    " stmts))
    (QCheck.Gen.list_size (int_range 1 6) stmt)

let prop_rich_kernels_equivalent =
  QCheck.Test.make ~name:"rich random kernels: JVM = C" ~count:120
    (QCheck.make gen_rich_kernel) (fun src ->
      let c = S2fa.compile ~in_caps:[ 8 ] ~out_caps:[ 8 ] src in
      let rng = Rng.create 77 in
      let tasks =
        Array.init 3 (fun _ ->
            Interp.VArr
              { Interp.aelem = Ast.TDouble;
                adata =
                  Array.init 8 (fun _ ->
                      Interp.VDouble (Rng.float rng 4.0 -. 2.0)) })
      in
      let jvm = Blaze.map_jvm c.S2fa.c_class ~fields:[] tasks in
      let mgr = Blaze.create_manager () in
      Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
      let fpga = Blaze.map_accelerated mgr ~id:"r" tasks in
      Array.for_all2 Interp.equal_value jvm.Blaze.tr_values
        fpga.Blaze.tr_values)

(* Transformed rich kernels stay equivalent under random tiling of every
   tileable loop. *)
let prop_rich_kernels_tiled_equivalent =
  QCheck.Test.make ~name:"rich kernels tiled: JVM = C" ~count:60
    QCheck.(pair (QCheck.make gen_rich_kernel) (int_range 2 5))
    (fun (src, tile) ->
      let c = S2fa.compile ~in_caps:[ 8 ] ~out_caps:[ 8 ] src in
      let ds = c.S2fa.c_dspace in
      let cfg =
        S2fa_tuner.Space.of_list
          (List.filter_map
             (fun p ->
               let name = S2fa_tuner.Space.param_name p in
               if String.length name > 5 && String.sub name 0 5 = "tile_" then
                 Some (name, S2fa_tuner.Space.VInt tile)
               else None)
             (S2fa_tuner.Space.params ds.S2fa_dse.Dspace.ds_space))
      in
      let rng = Rng.create 78 in
      let tasks =
        Array.init 2 (fun _ ->
            Interp.VArr
              { Interp.aelem = Ast.TDouble;
                adata =
                  Array.init 8 (fun _ ->
                      Interp.VDouble (Rng.float rng 4.0 -. 2.0)) })
      in
      let jvm = Blaze.map_jvm c.S2fa.c_class ~fields:[] tasks in
      let mgr = Blaze.create_manager () in
      Blaze.register mgr (S2fa.make_accelerator ~design:cfg c ~fields:[]);
      let fpga = Blaze.map_accelerated mgr ~id:"r" tasks in
      Array.for_all2 Interp.equal_value jvm.Blaze.tr_values
        fpga.Blaze.tr_values)

(* While loops survive the whole pipeline. *)
let test_while_loop_kernel () =
  let src = {|
class Wl() extends Accelerator[Int, Int] {
  val id: String = "wl"
  def call(in: Int): Int = {
    var n = in
    var steps = 0
    while (n != 1 && steps < 60) {
      if (n % 2 == 0) { n = n / 2 } else { n = 3 * n + 1 }
      steps = steps + 1
    }
    steps
  }
}
|} in
  let c = S2fa.compile src in
  let tasks = Array.init 10 (fun i -> Interp.VInt (i + 2)) in
  let jvm = Blaze.map_jvm c.S2fa.c_class ~fields:[] tasks in
  let mgr = Blaze.create_manager () in
  Blaze.register mgr (S2fa.make_accelerator c ~fields:[]);
  let fpga = Blaze.map_accelerated mgr ~id:"wl" tasks in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "collatz steps for %d" (i + 2))
        true
        (Interp.equal_value v fpga.Blaze.tr_values.(i)))
    jvm.Blaze.tr_values

let () =
  Alcotest.run "b2c"
    [ ( "cfg",
        [ Alcotest.test_case "linear" `Quick test_cfg_linear;
          Alcotest.test_case "loop detection" `Quick test_cfg_loop_detected;
          Alcotest.test_case "dominators" `Quick test_cfg_dominators ] );
      ( "decompile",
        [ Alcotest.test_case "S-W shape" `Quick test_decompile_sw_shape;
          Alcotest.test_case "for recovery" `Quick test_decompile_for_recovery;
          Alcotest.test_case "fields become params" `Quick
            test_decompile_fields_become_params;
          Alcotest.test_case "scalar output" `Quick test_decompile_scalar_output;
          Alcotest.test_case "layout capacities" `Quick
            test_decompile_layout_capacities;
          Alcotest.test_case "flat kernel" `Quick test_flat_kernel_inlines_call;
          Alcotest.test_case "nested interface rejected" `Quick
            test_unsupported_nested_interface_array ] );
      ( "equivalence",
        List.map
          (fun (w : W.t) ->
            Alcotest.test_case ("JVM = FPGA: " ^ w.W.w_name) `Quick
              (run_workload_equivalence w))
          W.all );
      ( "pipeline",
        [ Alcotest.test_case "while loops end to end" `Quick
            test_while_loop_kernel ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_kernels_equivalent;
            prop_rich_kernels_equivalent;
            prop_rich_kernels_tiled_equivalent ] ) ]
