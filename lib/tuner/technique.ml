module Rng = S2fa_util.Rng

type t = {
  name : string;
  propose : best:(Space.cfg * float) option -> Rng.t -> Space.cfg;
  feedback : Space.cfg -> float -> unit;
}

let uniform_greedy_mutation space =
  { name = "UniformGreedyMutation";
    propose =
      (fun ~best rng ->
        match best with
        | None -> Space.random_cfg rng space
        | Some (b, _) -> Space.mutate rng space b);
    feedback = (fun _ _ -> ()) }

let differential_evolution space rng0 =
  let population = 6 in
  let n = List.length (Space.params space) in
  let pop =
    Array.init population (fun _ ->
        (Space.to_floats space (Space.random_cfg rng0 space), infinity))
  in
  let pending : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let next_target = ref 0 in
  { name = "DifferentialEvolution";
    propose =
      (fun ~best:_ rng ->
        let i = !next_target in
        next_target := (i + 1) mod population;
        let pick () = Rng.int rng population in
        let a = pick () and b = pick () and c = pick () in
        let xa, _ = pop.(a) and xb, _ = pop.(b) and xc, _ = pop.(c) in
        let xi, _ = pop.(i) in
        let f = 0.6 and cr = 0.8 in
        let trial =
          Array.init n (fun j ->
              if Rng.float rng 1.0 < cr then
                xa.(j) +. (f *. (xb.(j) -. xc.(j)))
              else xi.(j))
        in
        let cfg = Space.of_floats space trial in
        Hashtbl.replace pending (Space.code cfg) i;
        cfg);
    feedback =
      (fun cfg perf ->
        let code = Space.code cfg in
        match Hashtbl.find_opt pending code with
        | None -> ()
        | Some i ->
          Hashtbl.remove pending code;
          let _, cur = pop.(i) in
          if perf < cur then pop.(i) <- (Space.to_floats space cfg, perf)) }

let particle_swarm space rng0 =
  let particles = 6 in
  let n = List.length (Space.params space) in
  let mk_particle () =
    let x = Space.to_floats space (Space.random_cfg rng0 space) in
    ( x,
      Array.init n (fun _ -> Rng.float rng0 0.2 -. 0.1),
      ref (Array.copy x, infinity) )
  in
  let swarm = Array.init particles (fun _ -> mk_particle ()) in
  let gbest = ref (None : (float array * float) option) in
  let pending : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  { name = "ParticleSwarm";
    propose =
      (fun ~best:_ rng ->
        let i = !next in
        next := (i + 1) mod particles;
        let x, v, pbest = swarm.(i) in
        let gb = match !gbest with Some (g, _) -> g | None -> fst !pbest in
        let w = 0.7 and c1 = 1.4 and c2 = 1.4 in
        for j = 0 to n - 1 do
          let r1 = Rng.float rng 1.0 and r2 = Rng.float rng 1.0 in
          v.(j) <-
            (w *. v.(j))
            +. (c1 *. r1 *. ((fst !pbest).(j) -. x.(j)))
            +. (c2 *. r2 *. (gb.(j) -. x.(j)));
          x.(j) <- Float.max 0.0 (Float.min 1.0 (x.(j) +. v.(j)))
        done;
        let cfg = Space.of_floats space x in
        Hashtbl.replace pending (Space.code cfg) i;
        cfg);
    feedback =
      (fun cfg perf ->
        let code = Space.code cfg in
        match Hashtbl.find_opt pending code with
        | None -> ()
        | Some i ->
          Hashtbl.remove pending code;
          let x = Space.to_floats space cfg in
          let _, _, pbest = swarm.(i) in
          if perf < snd !pbest then pbest := (x, perf);
          (match !gbest with
          | Some (_, g) when g <= perf -> ()
          | _ -> gbest := Some (x, perf))) }

let simulated_annealing space rng0 =
  let cooling = 0.96 in
  let current = ref (Space.random_cfg rng0 space, infinity) in
  let temp = ref 1.0 in
  let pending = ref None in
  { name = "SimulatedAnnealing";
    propose =
      (fun ~best rng ->
        let base =
          if snd !current = infinity then
            match best with Some (b, p) -> (b, p) | None -> !current
          else !current
        in
        let cand = Space.neighbor rng space (fst base) in
        pending := Some (cand, rng);
        cand);
    feedback =
      (fun cfg perf ->
        (match !pending with
        | Some (c, rng) when String.equal (Space.code c) (Space.code cfg) ->
          let _, cur = !current in
          let accept =
            perf < cur
            ||
            (cur < infinity
            && Rng.float rng 1.0
               < exp (-.(perf -. cur) /. (Float.max 1e-9 !temp *. cur)))
          in
          if accept then current := (cfg, perf)
        | _ -> ());
        pending := None;
        temp := !temp *. cooling) }

let default_suite space rng =
  [ uniform_greedy_mutation space;
    differential_evolution space (Rng.split rng);
    particle_swarm space (Rng.split rng);
    simulated_annealing space (Rng.split rng) ]
