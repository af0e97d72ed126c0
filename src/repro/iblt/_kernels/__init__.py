"""Report-metadata stub; the package has no compiled kernel layer."""


# Kept only for the end-to-end benchmark's report metadata, which reads it.
def kernel_status() -> dict:
    return {"resolved": "numpy"}
