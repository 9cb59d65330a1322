#include "ir/program.h"

namespace chf {

Program
Program::clone() const
{
    Program copy;
    copy.fn = fn.clone();
    copy.memory = memory;
    copy.defaultArgs = defaultArgs;
    return copy;
}

} // namespace chf
