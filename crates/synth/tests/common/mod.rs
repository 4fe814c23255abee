//! Inputs shared by the golden tests: the seeded random circuit
//! generator, the committed SAT miter sides and fixture loading.

use cirlearn_aig::{Aig, Edge};

/// Number of seeded random circuits in each fixture set.
pub const RANDOM_CASES: u64 = 8;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random multi-output AIG of AND, OR, XOR and MUX gates. Fanins are
/// drawn mostly from a window of the most recent nodes, so cones
/// reconverge and cuts can have one leaf inside another leaf's cone.
pub fn random_aig(seed: u64) -> Aig {
    let mut state = seed;
    let mut rng = move |bound: u64| splitmix64(&mut state) % bound;
    let inputs = 5 + rng(8) as usize;
    let gates = 40 + rng(60) as usize;
    let outputs = 2 + rng(5) as usize;
    let window = 3 + rng(12);
    let mut g = Aig::new();
    let mut pool: Vec<Edge> = g.add_inputs("x", inputs);
    for _ in 0..gates {
        let pick = |rng: &mut dyn FnMut(u64) -> u64| {
            let len = pool.len() as u64;
            let index = if rng(4) == 0 {
                rng(len)
            } else {
                len - 1 - rng(len.min(window))
            };
            pool[index as usize].complement_if(rng(3) == 0)
        };
        let a = pick(&mut rng);
        let b = pick(&mut rng);
        let n = match rng(4) {
            0 => g.and(a, b),
            1 => g.or(a, b),
            2 => g.xor(a, b),
            _ => {
                let c = pick(&mut rng);
                g.mux(a, b, c)
            }
        };
        if n.node().index() > g.num_inputs() {
            pool.push(n);
        }
    }
    for k in 0..outputs {
        let index = pool.len() - 1 - rng(pool.len().min(30) as u64) as usize;
        g.add_output(pool[index].complement_if(rng(2) == 0), format!("y{k}"));
    }
    g
}

/// One side of the committed SAT redundancy miter (`"left"` or
/// `"right"`).
pub fn redundancy_miter(side: &str) -> Aig {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../sat/tests/data");
    let text = std::fs::read_to_string(format!("{path}/redundancy_miter_{side}.aag"))
        .expect("fixture is readable");
    Aig::from_aiger_ascii(&text).expect("fixture parses")
}

/// Reads a fixture file under `tests/data/<dir>/`.
pub fn load(dir: &str, name: &str) -> String {
    let path = format!("{}/tests/data/{dir}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}
