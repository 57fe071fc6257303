"""Fusion exponentiation: raising n-tuples of prime-order-group elements to
exponents from the extension field GF(q^n), together with discrete-log
solvers, oracle reductions between the scalar and tuple problem families,
and demo protocols (Diffie-Hellman, ElGamal, verifiable secret sharing)."""

from .errors import (
    BadDegree,
    BadThreshold,
    CapExceeded,
    FusionExpError,
    IdentityBase,
    NotFound,
    NotIrreducible,
    NotPrime,
    OracleInconsistent,
    ParamsMismatch,
    SearchExhausted,
    VerifyFailed,
    ZeroInverse,
)
from .field import (
    FieldElement,
    FieldParams,
    fe,
    fe_add,
    fe_from_int,
    fe_inv,
    fe_is_zero,
    fe_mul,
    fe_neg,
    fe_one,
    fe_pow,
    fe_random,
    fe_sub,
    fe_zero,
    find_irreducible,
    is_irreducible,
    lambda_entries,
    lambda_symbolic,
    make_field_params,
)
from .group import (
    GroupElement,
    GroupParams,
    g_inv,
    g_mul,
    g_pow,
    gen_group_params,
    generator_element,
    identity,
)
from .fusion import (
    FusionBase,
    fb_identity,
    fb_inv,
    fb_mul,
    fusion_pow,
    is_identity,
    scalar_embed,
    unit_embed,
)
from .dlp import (
    DlogInstance,
    FdlogInstance,
    dlog_bruteforce,
    dlog_bsgs,
    dlog_pollard_rho,
    fdlog_bruteforce,
    fdlog_solve,
)
from .reductions import (
    CountingOracle,
    ReductionReport,
    ddh_from_dh,
    dh_from_dlog,
    fddh_from_fdh,
    fdh_from_fdlog,
    reduce_ddp_to_fddp,
    reduce_dhp_to_fdhp,
    reduce_dlp_to_fdlp,
    run_reduction_matrix,
)
from .protocols import (
    ElGamalCiphertext,
    FusionKeyPair,
    VssShare,
    fdh_keygen,
    fdh_shared,
    felgamal_decrypt,
    felgamal_encrypt,
    felgamal_keygen,
    vss_check,
    vss_deal,
    vss_reconstruct,
    vss_split,
    vss_verify,
    vss_verify_all,
)


def __getattr__(name: str):
    # VssDealing is a dataclass made on first use; see protocols.
    if name == "VssDealing":
        return protocols.VssDealing
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
