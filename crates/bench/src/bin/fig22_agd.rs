//! Fig. 22 — case study against EQC-style asynchronous gradient descent:
//! one AGD epoch (parameters sharded across devices) needs more circuit
//! executions than synchronous optimization of all parameters and reaches a
//! lower approximation ratio.

use qoncord_bench::{fmt, print_table, write_csv, ExperimentArgs};
use qoncord_device::catalog;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_vqa::agd::agd_epoch;
use qoncord_vqa::evaluator::{CostEvaluator, QaoaEvaluator};
use qoncord_vqa::optimizer::Spsa;
use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = ExperimentArgs::parse();
    let iterations = args.scale(20, 60);
    let layers = 3;
    let problem = MaxCut::new(Graph::paper_graph_7());
    let initial = vec![0.8; 2 * layers];
    // Synchronous baseline: all parameters together on the HF device.
    let mut sync_eval = QaoaEvaluator::new(
        &problem,
        layers,
        SimulatedBackend::from_calibration(catalog::ibmq_kolkata()),
        args.seed,
    );
    let mut spsa = Spsa::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut params = initial.clone();
    for _ in 0..iterations {
        let mut objective = |p: &[f64]| sync_eval.evaluate(p).expectation;
        spsa.step(&mut params, &mut objective, &mut rng);
    }
    let sync_final = sync_eval.evaluate(&params).expectation;
    let sync_execs = sync_eval.executions();
    // One AGD epoch across LF + HF with the same per-block iteration count.
    let mut lf_eval = QaoaEvaluator::new(
        &problem,
        layers,
        SimulatedBackend::from_calibration(catalog::ibmq_toronto()),
        args.seed + 1,
    );
    let mut hf_eval = QaoaEvaluator::new(
        &problem,
        layers,
        SimulatedBackend::from_calibration(catalog::ibmq_kolkata()),
        args.seed + 2,
    );
    let mut evals: Vec<&mut dyn CostEvaluator> = vec![&mut lf_eval, &mut hf_eval];
    let agd = agd_epoch(&mut evals, &initial, iterations, args.seed);
    let agd_execs: u64 = agd.executions_per_device.iter().sum();
    let rows = vec![
        vec![
            "Synchronous (baseline)".to_string(),
            fmt(problem.approximation_ratio(sync_final), 3),
            sync_execs.to_string(),
        ],
        vec![
            "Async (EQC), 1 epoch".to_string(),
            fmt(problem.approximation_ratio(agd.expectation), 3),
            agd_execs.to_string(),
        ],
    ];
    println!("Fig. 22: asynchronous gradient descent vs synchronous optimization\n");
    print_table(&["Mode", "approx ratio", "circuit executions"], &rows);
    println!(
        "\nAGD costs {:.1}x the executions of the synchronous baseline at lower quality",
        agd_execs as f64 / sync_execs.max(1) as f64
    );
    println!("(paper: one AGD epoch exceeds the baseline's executions with a much lower ratio)");
    write_csv(
        "fig22_agd.csv",
        &["mode", "approx_ratio", "executions"],
        &rows,
    );
}
