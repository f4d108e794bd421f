"""Seeded simulator of CHSH Bell tests through a disordered multimode channel."""

from .polarization import (
    AmplitudeVector,
    PoincareState,
    Projector,
    WaveplateSetting,
    amplitude_vector,
    orthogonal_complement,
    overlap,
    random_alice_basis,
    waveplate_projection,
)
from .medium import (
    HaarChannel,
    SpecklePattern,
    TransmissionMatrix,
    bob_projector_set,
    haar_columns,
    load_tm,
    projector_from_tm,
    random_tm,
    save_tm,
    speckle_intensity,
)
from .pairsource import (
    DelayModel,
    HomCurve,
    PairStateModel,
    UndefinedContrastError,
    contrast,
    hom_curve,
    hom_rate,
    joint_probability,
    oracle_joint_probability,
    relabeled,
)
from .chsh import (
    MeasurementBasis,
    CorrelationValue,
    SEnumeration,
    SRecord,
    TSIRELSON,
    UndefinedCorrelationError,
    alice_basis,
    build_bob_bases,
    correlation,
    enumerate_s,
    max_violation_search,
    s_value,
)
from .stats import (
    AcquisitionConfig,
    CertificationReport,
    CountRecord,
    certify,
    e_with_sigma,
    histogram,
    noisy_enumerate,
    s_with_sigma,
    sample_counts,
)

__version__ = "0.1.0"
