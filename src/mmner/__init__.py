"""Desk-scale multilingual/multimodal NER: encoders, alignment, fusion, CRF."""

from mmner.autodiff import Tensor, backward, no_grad

__version__ = "0.1.0"

__all__ = ["Tensor", "backward", "no_grad", "__version__"]
