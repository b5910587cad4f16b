"""
Key generation, encryption, decryption
======================================

The plaintext is a binary vector of weight at most e, the largest weight
at which the syndrome map stays injective. keygen finds e: at once when
the binary syndrome map has a trivial kernel, else by enumerating
syndromes weight by weight until two collide. Encryption is a syndrome
computation against the scrambled public matrix. Decryption undoes the
row scrambler, solves for one preimage by F2 elimination, and searches
that preimage's kernel coset for the unique one of weight <= e.
"""

import itertools

from qcnied import keygen, encrypt, decrypt
from qcnied import sample_compliant

c = sample_compliant(5, 1, 2, 2, seed=3)

# the private key holds C as its block first rows, as its key file does
priv, pub = keygen(c, seed=9)
print("error capacity e =", pub.e, "kernel dimension", len(priv.kernel))

# the public matrix is the private one with rows mixed by an invertible
# binary matrix and columns permuted; it looks nothing like [I | C].
# It is held as n packed columns, entry i in bits [i*eta, (i+1)*eta).
mask = (1 << pub.ctx.eta) - 1
public_row0 = [col & mask for col in pub.hprime]
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
