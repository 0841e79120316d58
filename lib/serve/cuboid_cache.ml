module Governor = X3_core.Governor

type 'a entry = {
  e_key : string;
  e_value : 'a;
  e_bytes : int;
  mutable e_stamp : int;  (* LRU clock: larger = more recently used *)
  mutable e_hits : int;  (* since insertion *)
}

type 'a t = {
  account : Governor.account;
  on_evict : string -> 'a -> unit;
  observe_walk : seconds:float -> victims:int -> unit;
  lock : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable evicted_unused : int;
}

let create ?(on_evict = fun _ _ -> ())
    ?(observe_walk = fun ~seconds:_ ~victims:_ -> ()) ~account () =
  {
    account;
    on_evict;
    observe_walk;
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    evicted_unused = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          t.hits <- t.hits + 1;
          e.e_hits <- e.e_hits + 1;
          e.e_stamp <- tick t;
          Some e.e_value
      | None ->
          t.misses <- t.misses + 1;
          None)

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

(* Detach one entry under the lock, releasing its bytes; the [on_evict]
   callback is deferred to after unlock so it may re-enter the cache
   (a document eviction removes its cuboid views). *)
let detach t e =
  Hashtbl.remove t.table e.e_key;
  Governor.release t.account e.e_bytes;
  t.evictions <- t.evictions + 1;
  fun () -> t.on_evict e.e_key e.e_value

let lru t =
  Hashtbl.fold
    (fun _ e acc ->
      match acc with
      | Some best when best.e_stamp <= e.e_stamp -> acc
      | _ -> Some e)
    t.table None

let insert t ~key ~bytes value =
  let deferred = ref [] in
  let victims = ref 0 in
  let walk_seconds = ref 0. in
  let stored =
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some old -> deferred := detach t old :: !deferred
        | None -> ());
        let rec make_room () =
          if Governor.reserve t.account bytes then true
          else
            match lru t with
            | Some victim ->
                (* Evicted for room before its first hit: the cache is
                   churning entries it never serves. *)
                if victim.e_hits = 0 then
                  t.evicted_unused <- t.evicted_unused + 1;
                deferred := detach t victim :: !deferred;
                incr victims;
                make_room ()
            | None -> false
        in
        let fits =
          if Governor.reserve t.account bytes then true
          else begin
            (* A reservation that needs evictions is the walk worth
               timing: each round scans the whole table for the LRU
               victim, so a hot cache under churn pays O(entries) per
               freed entry. *)
            let t0 = Unix.gettimeofday () in
            let fits = make_room () in
            walk_seconds := Unix.gettimeofday () -. t0;
            fits
          end
        in
        if fits then begin
          Hashtbl.replace t.table key
            {
              e_key = key;
              e_value = value;
              e_bytes = bytes;
              e_stamp = tick t;
              e_hits = 0;
            };
          true
        end
        else false)
  in
  List.iter (fun f -> f ()) (List.rev !deferred);
  if !victims > 0 then
    t.observe_walk ~seconds:!walk_seconds ~victims:!victims;
  stored

let remove t key =
  let deferred =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e -> Some (detach t e)
        | None -> None)
  in
  Option.iter (fun f -> f ()) deferred

(* Oldest-first so a consumer that replays the list (the warm-restart
   snapshot) reconstructs the same recency order by inserting in turn. *)
let snapshot t =
  locked t (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
      |> List.sort (fun a b -> compare a.e_stamp b.e_stamp)
      |> List.map (fun e -> (e.e_key, e.e_value, e.e_bytes)))

let entries t = locked t (fun () -> Hashtbl.length t.table)
let resident_bytes t = Governor.account_used t.account
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let evicted_unused t = locked t (fun () -> t.evicted_unused)
