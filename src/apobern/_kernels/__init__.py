"""Dense integer and rational kernels, in pure Python."""

from ._pure import conv_frac, conv_int, power, prim_gcd_int, recip_frac

__all__ = ["conv_int", "conv_frac", "recip_frac", "power", "prim_gcd_int"]
