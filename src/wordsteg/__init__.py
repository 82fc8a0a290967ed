"""wordsteg: hide short symbol strings inside natural-looking cover messages.

The toolkit counts n-gram statistics over a message corpus, draws a secret
codebook from a chosen word-frequency band, inserts one codeword per secret
symbol into a cover at the least-conspicuous positions, and measures how
decodable, dense, and detectable the results are.
"""

__version__ = "0.1.0"
