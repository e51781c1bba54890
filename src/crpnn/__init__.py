"""Polynomial neural networks with controllable order and readable spectra.

Two structures are provided: CR-PNN I (stacked Taylor layers, one order per
layer) and CR-PNN II (a power-c expanded layer plus Taylor layers, for
orders beyond the input dimension), together with exact per-sample multiply
counting, backprop training, exact expansion of trained models into sparse
polynomial "relation spectra", synthetic data generation and a wall-clock
benchmark harness.
"""

from .bench import BenchProtocol, BenchReport, run_bench
from .datagen import (
    CapacityError,
    Dataset,
    DatasetFormatError,
    gen_random_polynomial,
    make_dataset,
    read_dataset_csv,
    sample_sine_trajectory,
    write_dataset_csv,
)
from .kernels import backend_name
from .linalg import MultiplyCounter, ShapeError
from .network import (
    CRPNN1,
    CRPNN2,
    CrpnnModel,
    ModelFormatError,
    NetworkSpec,
    forward,
    init_weights,
    load_model,
    predict_batch,
    save_model,
)
from .spectrum import (
    RelationSpectrum,
    SpectrumFormatError,
    SpectrumSizeError,
    compare_spectra,
    evaluate_spectrum,
    evaluate_spectrum_cols,
    expand_to_spectrum,
    export_spectrum,
    import_spectrum,
)
from .topology import (
    TopologyError,
    TopologyPlan,
    mult_count_crpnn1,
    mult_count_crpnn2,
    plan_topology,
)
from .training import (
    TrainConfig,
    TrainRecord,
    TrainingDivergedError,
    backward,
    grad_check,
    loss_mse,
    sgd_step,
    train,
)

__version__ = "0.1.0"
