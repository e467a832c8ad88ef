#pragma once
/// \file simd_intrin.hpp
/// <immintrin.h> for the per-ISA TUs. GCC 12's avx512fintrin.h builds its
/// "undefined" vectors with a self-initialisation (`__m512i __Y = __Y;`),
/// which -Wuninitialized / -Wmaybe-uninitialized report at every inlined
/// intrinsic that passes one as its unused merge source (GCC bug 105593,
/// fixed in GCC 13). Both are silenced for that compiler version and only
/// inside the system header, so the kernels' own code is still checked.

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
