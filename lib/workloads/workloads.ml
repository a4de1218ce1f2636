module Rng = S2fa_util.Rng
module Ast = S2fa_scala.Ast
module Interp = S2fa_jvm.Interp
module Space = S2fa_tuner.Space
module Dspace = S2fa_dse.Dspace
module Csyntax = S2fa_hlsc.Csyntax
module Canalysis = S2fa_hlsc.Canalysis

type t = {
  w_name : string;
  w_kind : string;
  w_source : string;
  w_in_caps : int list;
  w_out_caps : int list;
  w_field_caps : (string * int) list;
  w_fields : Rng.t -> (string * Interp.value) list;
  w_gen : Rng.t -> int -> Interp.value array;
  w_manual : Dspace.t -> Space.cfg;
  w_manual_ii : float option;
  w_tasks : int;
}

(* ---------- value helpers ---------- *)

let darr xs =
  Interp.VArr
    { Interp.aelem = Ast.TDouble;
      adata = Array.map (fun x -> Interp.VDouble x) xs }

let iarr xs =
  Interp.VArr
    { Interp.aelem = Ast.TInt; adata = Array.map (fun x -> Interp.VInt x) xs }

let str s =
  Interp.VArr
    { Interp.aelem = Ast.TChar;
      adata = Array.init (String.length s) (fun i -> Interp.VChar s.[i]) }

let random_string rng n =
  let bases = [| 'A'; 'C'; 'G'; 'T' |] in
  Interp.VArr
    { Interp.aelem = Ast.TChar;
      adata = Array.init n (fun _ -> Interp.VChar (Rng.choose rng bases)) }

let random_darr rng n = darr (Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0))

(* ---------- manual-design helpers ---------- *)

(* An expert configuration: innermost loops pipelined and unrolled,
   intermediate loops pipelined, the task loop tiled for burst
   buffering, wide interfaces. *)
let expert ?(inner_par = 16) ?(task_tile = 16) ?(bw = 512) (ds : Dspace.t) =
  let cfg = ref [] in
  let add k v = cfg := (k, v) :: !cfg in
  List.iter
    (fun id ->
      let is_task = id = ds.Dspace.ds_task_loop in
      let is_inner = List.mem id ds.Dspace.ds_inner_ids in
      let tile = if is_task then task_tile else 1 in
      let par = if is_inner then inner_par else 1 in
      let pipe = if is_task then "off" else "on" in
      add (Dspace.tile_name id) (Space.VInt tile);
      add (Dspace.par_name id) (Space.VInt par);
      add (Dspace.pipe_name id) (Space.VStr pipe))
    ds.Dspace.ds_loop_ids;
  List.iter
    (fun b -> add (Dspace.bw_name b) (Space.VInt bw))
    ds.Dspace.ds_buffers;
  (* Keep only parameters that exist in the identified space (loops with
     trip 1 have no tile/par parameters). *)
  let names =
    List.map Space.param_name (Space.params ds.Dspace.ds_space)
  in
  Space.of_list (List.filter (fun (k, _) -> List.mem k names) !cfg)

(* ---------- kernels ---------- *)

let pr =
  { w_name = "PR";
    w_kind = "graph proc.";
    w_source =
      {|
class PR() extends Accelerator[(Array[Double], Int), Double] {
  val id: String = "PR"
  def call(in: (Array[Double], Int)): Double = {
    val contribs = in._1
    val cnt = in._2
    var sum = 0.0
    for (i <- 0 until 64) {
      if (i < cnt) {
        sum = sum + contribs(i)
      }
    }
    0.15 + 0.85 * sum
  }
}
|};
    w_in_caps = [ 64 ];
    w_out_caps = [];
    w_field_caps = [];
    w_fields = (fun _ -> []);
    w_gen =
      (fun rng n ->
        Array.init n (fun _ ->
            let deg = Rng.int_in rng 4 64 in
            let contribs =
              Array.init deg (fun _ -> Rng.float rng 0.01)
            in
            Interp.VTuple [| darr contribs; Interp.VInt deg |]));
    w_manual = expert ~inner_par:8 ~bw:512;
    w_manual_ii = None;
    w_tasks = 4096 }

let kmeans =
  { w_name = "KMeans";
    w_kind = "classification";
    w_source =
      {|
class KMeans(centers: Array[Double]) extends Accelerator[Array[Double], Int] {
  val id: String = "KMeans"
  def call(in: Array[Double]): Int = {
    var bestIdx = 0
    var bestDist = 1.0e30
    for (c <- 0 until 8) {
      var dist = 0.0
      for (j <- 0 until 16) {
        val diff = in(j) - centers(c * 16 + j)
        dist = dist + diff * diff
      }
      if (dist < bestDist) {
        bestDist = dist
        bestIdx = c
      }
    }
    bestIdx
  }
}
|};
    w_in_caps = [ 16 ];
    w_out_caps = [];
    w_field_caps = [ ("centers", 128) ];
    w_fields =
      (fun rng ->
        [ ("centers", darr (Array.init 128 (fun _ -> Rng.float rng 2.0))) ]);
    w_gen = (fun rng n -> Array.init n (fun _ -> random_darr rng 16));
    w_manual = expert ~inner_par:16 ~bw:256;
    w_manual_ii = None;
    w_tasks = 4096 }

let knn =
  { w_name = "KNN";
    w_kind = "classification";
    w_source =
      {|
class KNN(train: Array[Double]) extends Accelerator[Array[Double], Int] {
  val id: String = "KNN"
  def call(in: Array[Double]): Int = {
    var bestIdx = 0
    var bestDist = 1.0e30
    for (p <- 0 until 64) {
      var dist = 0.0
      for (j <- 0 until 16) {
        val diff = in(j) - train(p * 16 + j)
        dist = dist + diff * diff
      }
      if (dist < bestDist) {
        bestDist = dist
        bestIdx = p
      }
    }
    bestIdx
  }
}
|};
    w_in_caps = [ 16 ];
    w_out_caps = [];
    w_field_caps = [ ("train", 1024) ];
    w_fields =
      (fun rng ->
        [ ("train", darr (Array.init 1024 (fun _ -> Rng.float rng 2.0))) ]);
    w_gen = (fun rng n -> Array.init n (fun _ -> random_darr rng 16));
    w_manual = expert ~inner_par:16 ~bw:512;
    w_manual_ii = None;
    w_tasks = 4096 }

let lr =
  { w_name = "LR";
    w_kind = "regression";
    w_source =
      {|
class LR(weights: Array[Double]) extends Accelerator[(Array[Double], Double), Array[Double]] {
  val id: String = "LR"
  def call(in: (Array[Double], Double)): Array[Double] = {
    val x = in._1
    val y = in._2
    var dot = 0.0
    for (j <- 0 until 64) {
      dot = dot + weights(j) * x(j)
    }
    val scale = (1.0 / (1.0 + math.exp(-y * dot)) - 1.0) * y
    val grad = new Array[Double](64)
    for (j <- 0 until 64) {
      grad(j) = scale * x(j)
    }
    grad
  }
}
|};
    w_in_caps = [ 64 ];
    w_out_caps = [ 64 ];
    w_field_caps = [ ("weights", 64) ];
    w_fields =
      (fun rng ->
        [ ("weights", darr (Array.init 64 (fun _ -> Rng.float rng 1.0))) ]);
    w_gen =
      (fun rng n ->
        Array.init n (fun _ ->
            Interp.VTuple
              [| random_darr rng 64;
                 Interp.VDouble (if Rng.bool rng then 1.0 else -1.0) |]));
    w_manual = expert ~inner_par:32 ~bw:512;
    (* The manual HLS splits the regression statement into stages and
       reaches a fully pipelined datapath; S2FA stops at II ~ 13
       (Section 5.2). *)
    w_manual_ii = Some 1.0;
    w_tasks = 2048 }

let svm =
  { w_name = "SVM";
    w_kind = "regression";
    w_source =
      {|
class SVM(weights: Array[Double]) extends Accelerator[(Array[Double], Double), Array[Double]] {
  val id: String = "SVM"
  def call(in: (Array[Double], Double)): Array[Double] = {
    val x = in._1
    val y = in._2
    var dot = 0.0
    for (j <- 0 until 64) {
      dot = dot + weights(j) * x(j)
    }
    val grad = new Array[Double](64)
    if (y * dot < 1.0) {
      for (j <- 0 until 64) {
        grad(j) = 0.0 - y * x(j)
      }
    }
    grad
  }
}
|};
    w_in_caps = [ 64 ];
    w_out_caps = [ 64 ];
    w_field_caps = [ ("weights", 64) ];
    w_fields =
      (fun rng ->
        [ ("weights", darr (Array.init 64 (fun _ -> Rng.float rng 1.0))) ]);
    w_gen =
      (fun rng n ->
        Array.init n (fun _ ->
            Interp.VTuple
              [| random_darr rng 64;
                 Interp.VDouble (if Rng.bool rng then 1.0 else -1.0) |]));
    w_manual = expert ~inner_par:32 ~bw:512;
    w_manual_ii = None;
    w_tasks = 2048 }

let lls =
  { w_name = "LLS";
    w_kind = "regression";
    w_source =
      {|
class LLS(weights: Array[Double]) extends Accelerator[(Array[Double], Double), Array[Double]] {
  val id: String = "LLS"
  def call(in: (Array[Double], Double)): Array[Double] = {
    val x = in._1
    val y = in._2
    var dot = 0.0
    for (j <- 0 until 64) {
      dot = dot + weights(j) * x(j)
    }
    val residual = dot - y
    val grad = new Array[Double](64)
    for (j <- 0 until 64) {
      grad(j) = residual * x(j)
    }
    grad
  }
}
|};
    w_in_caps = [ 64 ];
    w_out_caps = [ 64 ];
    w_field_caps = [ ("weights", 64) ];
    w_fields =
      (fun rng ->
        [ ("weights", darr (Array.init 64 (fun _ -> Rng.float rng 1.0))) ]);
    w_gen =
      (fun rng n ->
        Array.init n (fun _ ->
            Interp.VTuple
              [| random_darr rng 64; Interp.VDouble (Rng.float rng 4.0) |]));
    w_manual = expert ~inner_par:32 ~bw:512;
    w_manual_ii = None;
    w_tasks = 2048 }

let aes =
  { w_name = "AES";
    w_kind = "string proc.";
    w_source =
      {|
class AES(sbox: Array[Int], rkey: Array[Int]) extends Accelerator[Array[Char], Array[Char]] {
  val id: String = "AES"
  def call(in: Array[Char]): Array[Char] = {
    val state = new Array[Int](16)
    for (i <- 0 until 16) {
      state(i) = in(i).toInt & 255
    }
    for (r <- 0 until 10) {
      for (i <- 0 until 16) {
        state(i) = sbox((state(i) ^ rkey(r * 16 + i)) & 255)
      }
    }
    val out = new Array[Char](16)
    for (i <- 0 until 16) {
      out(i) = state(i).toChar
    }
    out
  }
}
|};
    w_in_caps = [ 16 ];
    w_out_caps = [ 16 ];
    w_field_caps = [ ("sbox", 256); ("rkey", 160) ];
    w_fields =
      (fun rng ->
        let perm = Array.init 256 (fun i -> i) in
        Rng.shuffle rng perm;
        [ ("sbox", iarr perm);
          ("rkey", iarr (Array.init 160 (fun _ -> Rng.int rng 256))) ]);
    w_gen =
      (fun rng n ->
        Array.init n (fun _ ->
            Interp.VArr
              { Interp.aelem = Ast.TChar;
                adata =
                  Array.init 16 (fun _ ->
                      Interp.VChar (Char.chr (Rng.int rng 256))) }));
    w_manual = expert ~inner_par:16 ~task_tile:64 ~bw:512;
    w_manual_ii = None;
    w_tasks = 8192 }

let sw =
  { w_name = "S-W";
    w_kind = "string proc.";
    w_source =
      {|
class SW() extends Accelerator[(String, String), (String, String)] {
  val id: String = "S-W"
  def score(a: Char, b: Char): Int = {
    if (a == b) 2 else -1
  }
  def call(in: (String, String)): (String, String) = {
    val s1 = in._1
    val s2 = in._2
    var m = new Array[Int]((64 + 1) * (64 + 1))
    var best = 0
    var bi = 0
    var bj = 0
    for (i <- 1 to 64) {
      for (j <- 1 to 64) {
        val d = m((i - 1) * 65 + (j - 1)) + score(s1(i - 1), s2(j - 1))
        val u = m((i - 1) * 65 + j) - 1
        val l = m(i * 65 + (j - 1)) - 1
        var v = math.max(math.max(d, u), math.max(l, 0))
        m(i * 65 + j) = v
        if (v > best) {
          best = v
          bi = i
          bj = j
        }
      }
    }
    val out1 = new Array[Char](128)
    val out2 = new Array[Char](128)
    out1(0) = (best & 255).toChar
    out1(1) = (bi & 255).toChar
    out2(0) = (bj & 255).toChar
    (out1, out2)
  }
}
|};
    w_in_caps = [ 64; 64 ];
    w_out_caps = [ 128; 128 ];
    w_field_caps = [];
    w_fields = (fun _ -> []);
    w_gen =
      (fun rng n ->
        Array.init n (fun _ ->
            Interp.VTuple [| random_string rng 64; random_string rng 64 |]));
    w_manual = expert ~inner_par:32 ~task_tile:8 ~bw:512;
    w_manual_ii = Some 2.0;
    w_tasks = 1024 }

let all = [ pr; kmeans; knn; lr; svm; lls; aes; sw ]

let find name = List.find_opt (fun w -> String.equal w.w_name name) all

let compile w =
  S2fa_core.S2fa.compile ~in_caps:w.w_in_caps ~out_caps:w.w_out_caps
    ~field_caps:w.w_field_caps w.w_source

(* The expert sweeps the structured corner of the space by hand. *)
let manual_design w (c : S2fa_core.S2fa.compiled) =
  let ds = c.S2fa_core.S2fa.c_dspace in
  let depth_of =
    (* Loop ids in ds_loop_ids are pre-order; recover depths from the
       analysis of the flat kernel. *)
    let kernel =
      Option.get (Csyntax.find_cfunc c.S2fa_core.S2fa.c_flat "kernel")
    in
    let s = Canalysis.analyze kernel in
    fun id ->
      match Canalysis.find_loop s id with
      | Some li -> li.Canalysis.li_depth
      | None -> 0
  in
  let max_depth =
    List.fold_left (fun m id -> max m (depth_of id)) 0 ds.Dspace.ds_loop_ids
  in
  let mk ~inner_pipe ~inner_par ~mid_par ~task_par ~task_tile ~bw =
    let cfg = ref [] in
    let add k v = cfg := (k, v) :: !cfg in
    List.iter
      (fun id ->
        let d = depth_of id in
        let tile, par, pipe =
          if id = ds.Dspace.ds_task_loop then (task_tile, task_par, "off")
          else if d = max_depth then (1, inner_par, inner_pipe)
          else (1, mid_par, "on")
        in
        add (Dspace.tile_name id) (Space.VInt tile);
        add (Dspace.par_name id) (Space.VInt par);
        add (Dspace.pipe_name id) (Space.VStr pipe))
      ds.Dspace.ds_loop_ids;
    List.iter
      (fun b -> add (Dspace.bw_name b) (Space.VInt bw))
      ds.Dspace.ds_buffers;
    let names = List.map Space.param_name (Space.params ds.Dspace.ds_space) in
    Space.of_list (List.filter (fun (k, _) -> List.mem k names) !cfg)
  in
  let candidates =
    w.w_manual ds
    :: List.concat_map
         (fun inner_pipe ->
           List.concat_map
             (fun inner_par ->
               List.concat_map
                 (fun mid_par ->
                   List.concat_map
                     (fun task_par ->
                       List.concat_map
                         (fun task_tile ->
                           List.map
                             (fun bw ->
                               mk ~inner_pipe ~inner_par ~mid_par ~task_par
                                 ~task_tile ~bw)
                             [ 256; 512 ])
                         [ 1; 16; 64; 256; 1024 ])
                     [ 1; 2; 4; 8 ])
                 [ 4; 8; 16; 32; 64 ])
             [ 1; 2; 4; 8 ])
         [ "flatten"; "on" ]
  in
  let best =
    List.fold_left
      (fun acc cfg ->
        let r = S2fa_core.S2fa.estimate c cfg in
        if not r.S2fa_core.S2fa.Estimate.r_feasible then acc
        else
          match acc with
          | Some (_, s) when s <= r.S2fa_core.S2fa.Estimate.r_seconds -> acc
          | _ -> Some (cfg, r.S2fa_core.S2fa.Estimate.r_seconds))
      None candidates
  in
  match best with
  | Some (cfg, _) -> cfg
  | None -> w.w_manual ds
