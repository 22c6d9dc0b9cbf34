/**
 * @file
 * Whole-file reads for the small files that are parsed once and then
 * dropped: a library-set index, a campaign manifest. Containers —
 * live-point libraries and result stores — are mapped instead (see
 * io/mapped_file.hh), so their bytes are never copied to the heap;
 * both open their file through openForRead().
 */

#ifndef LP_IO_SOURCE_HH
#define LP_IO_SOURCE_HH

#include <string>

#include "util/types.hh"

namespace lp
{

/**
 * Open @p path read-only and return its descriptor. The open goes
 * through retrySyscall (util/retry.hh) with failpoint @p site, so a
 * transient failure (EINTR, EAGAIN), injected or real, is retried. A
 * hard failure, or a transient one past the retry budget, throws
 * IoError "cannot <verb> <what> '<path>': ...". Both read paths open
 * through it: readWholeFile ("io.open.read") and MappedFile::map
 * ("io.mmap.open").
 */
int openForRead(const std::string &path, const char *site,
                const char *verb, const char *what);

/**
 * Read all of @p path into a heap buffer, throwing on a missing file
 * or a file that ends early; each read goes through retrySyscall
 * ("io.read") and continues after a short read. @p what names the
 * file's role in error messages ("library-set index", "campaign
 * manifest").
 */
Blob readWholeFile(const std::string &path, const char *what);

} // namespace lp

#endif // LP_IO_SOURCE_HH
