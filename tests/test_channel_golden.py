"""A channel is one read-only Kraus stack; fixed fingerprints of the channel
constructors and of the toolkit sweep.

Each Kraus fingerprint is the sha256 of a channel's Kraus stack: its shape,
dtype and bytes, taken as one (n_kraus, d_out, d_in) array.  The order of
the Kraus operators is part of it, because ``_kraus_action`` adds their
terms in that order.  The sweep and report fingerprints are the sha256 of
the repr of their fields, floats written in hex.  Changing how a channel is
stored or built must leave every value here untouched.
"""

import hashlib

import numpy as np
import pytest

from memlab import (DensityMatrix, QuantumChannel, apply_channel,
                    correctable_isometry_check, depolarizing_channel,
                    random_channel, random_density, repetition_code_channels,
                    toolkit_sweep)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _kraus_sha(channel: QuantumChannel) -> str:
    k = np.ascontiguousarray(np.asarray(channel.kraus))
    return hashlib.sha256(repr((k.shape, str(k.dtype))).encode() + k.tobytes()).hexdigest()


def _hex(x: float) -> str:
    return float(x).hex()


REPETITION = {
    0.0:
        "0d0d1da880f9d4c346667a86dc0ad360b88e4cdff237e8c844982df0b92b2c02",
    0.15:
        "b4b3d9d9f9579864848f0f81475fcdca2ab85472792059b6f6bd0c3f5acec4cd",
    0.2:
        "5fbe03f5d8b6ccbe3334d021b9fd2e7e609e17ba6f8bb620618a3c98901733d3",
    1.0 / 3.0:
        "ff4407e02dd5f221759a3e0ed35d7f794afbec221a858bb4cdbcfce34a2bbe34",
}

DEPOLARIZING = {
    1:
        "6ebc6b0a2c6e6a2e5a535d8b154eda5fb4cc72c4d4d30ae288dd83b7a9055152",
    2:
        "b72fc7f9c84aba6ce2d805a00439daa5e4850d256d111872fad45a4583c8c8c0",
    3:
        "12730932fd7f9b78f8da9b04501c99d19ba2ab4b9a4443ae7710e26e2aa2d8af",
    4:
        "ddf184623c24914e21592b0868d485b3cedeaaf39653e9eb22fd944fc30b6945",
}

# (dim, n_kraus, seed)
RANDOM = {
    (2, 3, 0):
        "0fea247446d1588bcc3a752b4e915446cedac2248b4758c8f41e710c7df88fe1",
    (3, 1, 7):
        "8c9f7f0bbe4a6ec3f357580b6a785d4a64fbd16fb63aa12c5c3477a4d66db36c",
    (4, 2, 11):
        "4e7275ca09c156c168e533e6ed9741e99f6c6ee358712053ca93544edd43a24c",
}

# (n, seed)
SWEEPS = {
    (0, 5):
        "19928bdfa77dd85b9dbb41aba493204e48a286c70205ae726ac682fc535f8358",
    (1, 48):
        "0de974e268a18ddd05dd3d28b0e22285731899918b86c3602f4db687f7500a05",
    (3, 0):
        "8d59541cd8f00285740633abbc5feb3aa88e59d35a7c74d4d5892e4f650978ff",
    (40, 2):
        "f9beb5392902c2ac464d9af813f4790b22e5fdc5f4f83abf20cbffb4e1b00d46",
    (1000, 3):
        "1e643b40c4e097222f11663265d9af6c1b7fcade017b361c3490ecbd1a9dc97d",
    (2000, 11):
        "b3cc21248e50339940d91fd65f19d527877b2b4edf321c041b1f57249bd6f8fe",
}

ISOMETRY_REPORT = "06818482cbe8a7a23443439560f5a1d0db1b610073d941ce9f9432ecb0738ae9"
CONTRACTION_REPORT = "9ab6c976bde482e1794c6dd9400c9a83783d4361e90297cf57cf4c6ec7983263"


@pytest.mark.parametrize("p_flip", sorted(REPETITION))
def test_repetition_code_kraus(p_flip):
    noise, recovery, encoder = repetition_code_channels(p_flip)
    assert _sha([_kraus_sha(c) for c in (noise, recovery, encoder)]) == REPETITION[p_flip]


@pytest.mark.parametrize("dim", sorted(DEPOLARIZING))
def test_depolarizing_kraus(dim):
    assert _kraus_sha(depolarizing_channel(dim)) == DEPOLARIZING[dim]


@pytest.mark.parametrize("dim,n_kraus,seed", sorted(RANDOM))
def test_random_channel_kraus(dim, n_kraus, seed):
    chan = random_channel(dim, n_kraus, np.random.default_rng(seed))
    assert _kraus_sha(chan) == RANDOM[dim, n_kraus, seed]


def _sweep_fields(sweep):
    iso = sweep.isometry
    return (_hex(sweep.max_contraction_violation), iso.precondition_ok,
            iso.precondition_failures, iso.pairs, _hex(iso.max_deviation), iso.passed,
            _hex(sweep.min_fannes_slack))


@pytest.mark.parametrize("n,seed", sorted(SWEEPS))
def test_toolkit_sweep(n, seed):
    assert _sha(_sweep_fields(toolkit_sweep(n, np.random.default_rng(seed)))) == SWEEPS[n, seed]


def test_isometry_report():
    """A unitary on a qutrit, undone by its inverse: the precondition holds."""
    rng = np.random.default_rng(21)
    u = random_channel(3, 1, rng).kraus[0]
    states = [random_density(3, rng) for _ in range(5)]
    rep = correctable_isometry_check(QuantumChannel([u]), QuantumChannel([u.conj().T]),
                                     states)
    assert _sha((rep.precondition_ok, rep.precondition_failures, rep.pairs,
                 _hex(rep.max_deviation), rep.passed)) == ISOMETRY_REPORT


def test_contraction_report():
    rng = np.random.default_rng(22)
    chan = random_channel(3, 2, rng)
    rho = random_density(3, rng)
    pairs = [(random_density(3, rng), random_density(3, rng)) for _ in range(6)]
    out, rep = apply_channel(chan, rho, check_pairs=pairs)
    assert isinstance(out, DensityMatrix)
    assert _sha((out.matrix.tobytes(), rep.pairs, _hex(rep.max_violation),
                 rep.passed)) == CONTRACTION_REPORT


def test_kraus_is_one_read_only_stack():
    chan = random_channel(3, 4, np.random.default_rng(5))
    assert chan.kraus.shape == (4, 3, 3) and chan.kraus.dtype == np.complex128
    assert (chan.dim_out, chan.dim_in) == (3, 3)
    with pytest.raises(ValueError, match="read-only"):
        chan.kraus[0, 0, 0] = 1.0
    _, _, encoder = repetition_code_channels()
    assert encoder.kraus.shape == (1, 8, 2)


def test_matrices_and_their_stack_give_one_kraus_stack():
    noise, _, _ = repetition_code_channels(0.2)
    stack = np.array(noise.kraus)
    forms = [tuple(stack), list(stack), (k for k in stack), stack, stack.tolist(),
             [stack[0].real.tolist()] + list(stack[1:])]
    for form in forms:
        kraus = QuantumChannel(form).kraus
        assert kraus.shape == stack.shape and kraus.dtype == np.complex128
        assert kraus.tobytes() == stack.tobytes()
    chan = QuantumChannel(stack)  # holds a copy, not the caller's array
    stack[0, 0, 0] = 0.0
    assert chan.kraus[0, 0, 0] == noise.kraus[0, 0, 0] != 0.0
