"""
Key generation, encryption, decryption
======================================

The plaintext is a binary vector of weight at most e, the largest weight
at which the syndrome map stays injective. keygen finds e: at once when
the binary syndrome map has a trivial kernel, else by enumerating
syndromes weight by weight until two collide, or, once a level would
cost more than a walk of the binary kernel, by walking the kernel once
for its least weight d, so that e = (d - 1) // 2. Encryption is a syndrome
computation against the scrambled public matrix. Decryption undoes the
row scrambler, solves for one preimage by F2 elimination, and searches
that preimage's kernel coset for the unique one of weight <= e. The
scrambler acts on each bit-plane of a packed column as a binary matrix
on a k-bit vector: one parity per row and plane.
"""

import itertools

from qcnied import keygen, encrypt, decrypt
from qcnied import sample_compliant
from qcnied.niederreiter import unpack_column

c = sample_compliant(5, 1, 2, 2, seed=3)

# the private key holds C as its block first rows, as its key file does
priv, pub = keygen(c, seed=9)
print("error capacity e =", pub.e, "kernel dimension", len(priv.kernel))

# the public matrix is the private one with rows mixed by an invertible
# binary matrix and columns permuted; it looks nothing like [I | C].
# It is held as n packed columns of eta bit-planes, bit b*k + i holding
# bit b of entry i, so each plane is indexed like the scrambler's rows;
# unpack_column reads a column's k entries back.
public_row0 = [unpack_column(col, pub.k, pub.ctx.eta)[0] for col in pub.hprime]
private_row0 = [1] + [0] * (pub.k - 1) + list(c.expand()[0])
print("private [I|C] first row:", private_row0)
print("public  H'    first row:", public_row0)
assert public_row0 != private_row0

x = [0] * pub.n
x[0] = x[3] = 1
y = encrypt(pub, x)
print("ciphertext:", y)

back = decrypt(priv, y)
assert tuple(back) == tuple(x)
print("recovered support:", [j for j, bit in enumerate(back) if bit])

# every weight up to e roundtrips; weight e + 1 may collide, which is
# exactly why e stops where it does
count = 0
for w in range(pub.e + 1):
    for sup in itertools.combinations(range(pub.n), w):
        x = [1 if j in sup else 0 for j in range(pub.n)]
        assert tuple(decrypt(priv, encrypt(pub, x))) == tuple(x)
        count += 1
print(f"verified {count} plaintexts up to weight {pub.e}")

# the paper's keys need p > 30. At (31,1,2,2) seed 2 the enumeration
# would outrun a walk of the small binary kernel from weight 1 on, so
# keygen walks the kernel instead; a message of weight e roundtrips
c31 = sample_compliant(31, 1, 2, 2, seed=2)
priv31, pub31 = keygen(c31, seed=2)
print("(31,1,2,2): e =", pub31.e, "kernel dimension", len(priv31.kernel))
x = [1 if j < 2 * pub31.e and j % 2 == 0 else 0 for j in range(pub31.n)]
assert tuple(decrypt(priv31, encrypt(pub31, x))) == tuple(x)
print(f"recovered a weight-{pub31.e} plaintext of length {pub31.n}")
