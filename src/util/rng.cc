#include "util/rng.hh"

#include "util/bytes.hh"

namespace lp
{

Rng::Rng(std::uint64_t seed, const std::string &stream)
    : state_(hashCombine(
          seed, fnv1a(reinterpret_cast<const std::uint8_t *>(stream.data()),
                      stream.size())))
{
}

std::uint64_t
Rng::next()
{
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    // Multiply-shift reduction; the bias is negligible for the bounds
    // used here and the result stays platform-independent.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

} // namespace lp
