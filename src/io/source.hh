/**
 * @file
 * Whole-file reads for the small files that are parsed once and then
 * dropped: a library-set index, a campaign manifest. Containers —
 * live-point libraries and result stores — are mapped instead (see
 * io/mapped_file.hh), so their bytes are never copied to the heap.
 */

#ifndef LP_IO_SOURCE_HH
#define LP_IO_SOURCE_HH

#include <string>

#include "util/types.hh"

namespace lp
{

/**
 * Read all of @p path into a heap buffer, throwing on a missing file
 * or short read; @p what names the file's role in error messages
 * ("library-set index", "campaign manifest").
 */
Blob readWholeFile(const std::string &path, const char *what);

} // namespace lp

#endif // LP_IO_SOURCE_HH
