"""Pinned SHA-256 digests of ``generate`` output.

The digests were recorded before ``decode_inversion_table`` was rewritten;
any change to a generated instance, the random number draws included,
changes them.  ``target_inversions`` asks for half the maximum count,
``n * (n - 1) // 4``; the last two entries are the instances of the
count-sparse and count-dense benchmark workloads.
"""

import hashlib

import pytest

from invcount import InstanceSpec, generate
from invcount.instances import SHAPES

#: ``(shape, n) -> (digest at seed 0, digest at seed 1)``.
DIGESTS = {
    ("sorted", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sorted", 1): (
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    ("sorted", 2): (
        "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
        "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d"),
    ("sorted", 1000): (
        "9157058038a1c22be0bcbbd5f835bf299e8598e2e5239a4847be42a27516847a",
        "9157058038a1c22be0bcbbd5f835bf299e8598e2e5239a4847be42a27516847a"),
    ("reverse", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reverse", 1): (
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    ("reverse", 2): (
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65"),
    ("reverse", 1000): (
        "8ee445b22b4badaca848be2735e87e5dce6a7bf4a7de61f4d5f52a4293eee512",
        "8ee445b22b4badaca848be2735e87e5dce6a7bf4a7de61f4d5f52a4293eee512"),
    ("random_permutation", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random_permutation", 1): (
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    ("random_permutation", 2): (
        "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
        "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d"),
    ("random_permutation", 1000): (
        "cc0370aa1125666586be3623c8721111a280d7c68bce0a5ee5f71eec9d3ddb46",
        "c2b47f51bc430f0a3220bdf5a5296328e27aea6628d7ff0b142340978568577a"),
    ("random_real", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random_real", 1): (
        "fee51ee0d8cfbc1d7483c0cc95265f5c4c33505bd73f7bceeefedc405d2c944b",
        "e0f9f3bc2d4db4a325859d8551aa4fcf2598cc5835d4c54d094a254348ac5488"),
    ("random_real", 2): (
        "1ac5475d8a5e1a447bc7d0705d81919c9e5365966b0f8dacb1ed9b622dfe1afe",
        "58e41354ba2131243166026eccf9ac6cc692dbd13d60e564ccaf0b90e7ef801e"),
    ("random_real", 1000): (
        "7eaf3168ef8150e60745193d9afcd72c6b1218c71791c4283214b4feb2108ddd",
        "9ae6875ee2d535ad2a4780960ed443f7101080feebda6975a02d678d7914e6c1"),
    ("duplicates", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("duplicates", 1): (
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    ("duplicates", 2): (
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    ("duplicates", 1000): (
        "5602dc4d35db7b4070d85b375fe022319a81eb4010ff615a7885ac7ee1932eb6",
        "4c1ed5e00efbf66f6125d2e52043e3c74aed1294ce57832ebe94c71bd6680b43"),
    ("target_inversions", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("target_inversions", 1): (
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    ("target_inversions", 2): (
        "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
        "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d"),
    ("target_inversions", 1000): (
        "f37815f7e7177bf0c75fb79ad1e5cad2f7a9ffca3d9d60516ffd60695d024441",
        "e9fbc239348ab4e569efb077a4351d9d71ac7ebd252967af250d2cd8176af582"),
}

#: ``k* -> digest`` of the ``N = 2**17``, seed-0 ``target_inversions``
#: instance of the count benchmark workloads.
WORKLOAD_DIGESTS = {
    131072: "66e89a494b96a75b9b60a06c176f588198a58b90bfa2a99d0f23b9fb6cf4fc70",
    4294967296: "8511d1c6d27570fbc73e29b81569b721e59455e5b245641bc995b9b219238fa8",
}


def digest(spec: InstanceSpec) -> str:
    return hashlib.sha256(generate(spec).tobytes()).hexdigest()


def test_every_shape_is_pinned():
    assert {shape for shape, _ in DIGESTS} == set(SHAPES)


@pytest.mark.parametrize("shape, n", sorted(DIGESTS))
@pytest.mark.parametrize("seed", [0, 1])
def test_small_instances(shape, n, seed):
    target = n * (n - 1) // 4 if shape == "target_inversions" else None
    spec = InstanceSpec(n, shape, seed=seed, target=target)
    assert digest(spec) == DIGESTS[shape, n][seed]


@pytest.mark.parametrize("kstar", sorted(WORKLOAD_DIGESTS))
def test_count_workload_instances(kstar):
    spec = InstanceSpec(2**17, "target_inversions", seed=0, target=kstar)
    assert digest(spec) == WORKLOAD_DIGESTS[kstar]
